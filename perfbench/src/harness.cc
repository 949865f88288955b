#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

namespace perfbench {

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

bool ThreadBudgetOk(int busy, Report* report) {
  const int nproc = Nproc();
  report->Info("nproc", std::to_string(nproc));
  report->Info("busy_threads", std::to_string(busy));
  report->Layer("env.nproc", nproc);
  report->Layer("env.busy_threads", busy);
  if (busy > nproc) {
    std::fprintf(stderr,
                 "refusing to start: %d threads could be busy at once but "
                 "only %d CPUs are available\n",
                 busy, nproc);
    return false;
  }
  return true;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

bool ResponseIntact(const hsgd::serve::TopKResponse& response,
                    uint64_t min_version, uint64_t max_version, int k) {
  if (response.snapshot_version < min_version ||
      response.snapshot_version > max_version) {
    return false;
  }
  if (response.items.size() > static_cast<size_t>(k)) return false;
  for (size_t i = 0; i < response.items.size(); ++i) {
    if (!std::isfinite(response.items[i].score)) return false;
    if (i == 0) continue;
    const hsgd::ScoredItem& a = response.items[i - 1];
    const hsgd::ScoredItem& b = response.items[i];
    if (!(a.score > b.score || (a.score == b.score && a.item < b.item))) {
      return false;
    }
  }
  return true;
}

namespace {

std::string TailNote(const Tail& tail, double requested) {
  char note[96];
  if (tail.percentile == requested) {
    std::snprintf(note, sizeof(note), "p%g of n=%lld", requested,
                  static_cast<long long>(tail.samples));
  } else {
    std::snprintf(note, sizeof(note), "p%.1f of n=%lld (p%g unsupported)",
                  tail.percentile, static_cast<long long>(tail.samples),
                  requested);
  }
  return note;
}

void Put(Report* report, bool end_to_end, const std::string& name,
         double value, const std::string& note) {
  if (end_to_end) {
    report->EndToEnd(name, value, note);
  } else {
    report->Layer(name, value, note);
  }
}

}  // namespace

bool ReportTail(Report* report, bool end_to_end, const std::string& name,
                const std::vector<double>& values, double percentile) {
  const Tail tail = TailPercentile(values, percentile);
  report->Check(tail.ok, name + ": more than 10 samples");
  if (!tail.ok) return false;
  Put(report, end_to_end, name, tail.value, TailNote(tail, percentile));
  return true;
}

bool ReportWindowMedian(Report* report, bool end_to_end,
                        const std::string& name,
                        const std::vector<double>& values, size_t window,
                        double percentile) {
  if (window == 0 || values.size() < 2 * window) {
    return ReportTail(report, end_to_end, name, values, percentile);
  }
  std::vector<double> per_window;
  Tail tail;
  for (size_t lo = 0; lo + window <= values.size(); lo += window) {
    tail = TailPercentile(
        std::vector<double>(values.begin() + static_cast<int64_t>(lo),
                            values.begin() + static_cast<int64_t>(lo + window)),
        percentile);
    if (tail.ok) per_window.push_back(tail.value);
  }
  report->Check(!per_window.empty(),
                name + ": more than 10 samples per window");
  if (per_window.empty()) return false;
  char note[128];
  std::snprintf(note, sizeof(note),
                "median of %zu windows' p%.1f of n=%zu; whole-sample n=%zu",
                per_window.size(), tail.percentile, window, values.size());
  Put(report, end_to_end, name, Median(per_window), note);
  return true;
}

void FinishTrace(const SpanRecorder& spans, const Options& options,
                 double measured_s, Report* report) {
  if (!spans.enabled()) return;
  // Cost of one recorded span, measured on a private recorder after the
  // run, turned into the share of the measured phase tracing took.
  SpanRecorder probe(true, 1);
  constexpr int kProbeSpans = 20000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kProbeSpans; ++i) {
    SpanRecorder::Scope scope(&probe, 0, "probe", "bench", i);
  }
  const double per_span_s = Seconds(t0, NowNs()) / kProbeSpans;
  const int64_t n = spans.size();
  report->Layer("trace.spans", static_cast<double>(n));
  report->Layer("trace.overhead_pct",
                measured_s > 0.0 ? 100.0 * per_span_s * n / measured_s : 0.0,
                "span count x probed cost per span / measured time");

  std::printf("%-34s %-14s %8s %12s %12s\n", "span", "layer", "count",
              "total_s", "self_s");
  for (const SpanStat& stat : spans.Aggregate()) {
    std::printf("%-34s %-14s %8lld %12.6f %12.6f\n", stat.name.c_str(),
                stat.layer.c_str(), static_cast<long long>(stat.count),
                stat.total_s, stat.self_s);
  }
  // One file per workload, overwritten by the next traced run: a traced
  // serve run records about 450k spans, some 75 MB of JSON.
  const std::string path =
      options.out_dir + "/trace-" + options.workload + ".json";
  report->Check(spans.WriteChromeTrace(path), "trace written to " + path);
  report->Info("trace_file", path);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
