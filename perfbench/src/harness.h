// Plumbing shared by the three workloads: options, the thread budget,
// process facts, and the serving invariants every response must meet.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "serve/server.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every input so a run finishes in seconds (tests use it).
  bool tiny = false;
  /// Scratch directory for checkpoints, logs and the trace file.
  std::string out_dir = ".";
};

/// CPUs this process may run on.
int Nproc();

/// Refuses (returns false, recording why) when `busy` threads could be
/// busy at once on fewer CPUs; records nproc and the busy count otherwise.
bool ThreadBudgetOk(int busy, Report* report);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Deterministic generator for query streams.
inline uint32_t Lcg(uint32_t* state) {
  *state = *state * 1664525u + 1013904223u;
  return *state;
}

/// Uniform draw in [0, n) from the generator's high bits: its low bits
/// repeat with short periods (the lowest one alternates), so `Lcg % n`
/// for an even n would, for instance, route every query to one shard.
inline uint32_t Uniform(uint32_t* state, uint32_t n) {
  return static_cast<uint32_t>((static_cast<uint64_t>(Lcg(state) >> 8) * n) >>
                               24);
}

/// Serving invariants: a version within [min_version, max_version], at
/// most k items, finite scores sorted descending with ties by ascending
/// item id.
bool ResponseIntact(const hsgd::serve::TopKResponse& response,
                    uint64_t min_version, uint64_t max_version, int k);

/// Seconds between two NowNs() stamps.
inline double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// Reports `name` as the requested percentile of `values` under the
/// sample-count rule; the note names the percentile actually reported and
/// its sample count. Returns false when the sample is too small.
bool ReportTail(Report* report, bool end_to_end, const std::string& name,
                const std::vector<double>& values, double percentile);

/// Median per-window percentile: splits `values` (in completion order)
/// into consecutive windows of `window` samples and reports the median of
/// the windows' percentiles. Other tenants on the host slow some windows
/// down; the median keeps a minority of them from setting the number. With
/// fewer than two whole windows the whole sample is used.
bool ReportWindowMedian(Report* report, bool end_to_end,
                        const std::string& name,
                        const std::vector<double>& values, size_t window,
                        double percentile);

/// Span self time per name, printed after the metrics of a traced run,
/// plus the trace file itself.
void FinishTrace(const SpanRecorder& spans, const Options& options,
                 double measured_s, Report* report);

/// Removes a scratch file or directory tree the workload created.
void RemoveTree(const std::string& path);

}  // namespace perfbench
