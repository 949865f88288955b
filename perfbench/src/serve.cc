// Workload `serve`: a static snapshot behind a two-shard RecServer.
// Phase A sends queries open loop at a fixed rate well below capacity;
// phase B keeps a fixed window of queries outstanding and gives capacity
// and the end-to-end latencies. The generator is this thread, which also
// watches every future, so latency runs from a query's scheduled send time
// until the benchmark sees it resolve.
//
// Phase A's latency is reported per layer only. At a third of capacity the
// shards sleep between queries, and on a shared VM waking them waits on the
// host: over five consecutive runs phase A's p99 ranged from 3.4 to 32 ms.
// With a window outstanding the shards never sleep.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include "probes.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "workloads.h"

namespace perfbench {

namespace {

using hsgd::serve::FactorSnapshot;
using hsgd::serve::RecServer;
using hsgd::serve::SnapshotPtr;
using hsgd::serve::TopKResponse;

constexpr int kShards = 2;
constexpr int kMaxBatch = 32;
constexpr int kTopK = 10;
/// Phase A's fixed rate: about a third of the two-shard capacity measured
/// when the benchmark was written (9-11k queries/s on 4 vCPUs), low enough
/// that batches rarely form.
constexpr double kOpenLoopQps = 3000.0;
/// Phase B's outstanding-query window, split evenly over the shards so a
/// shard the host slows down cannot hold the whole window and idle the
/// other one. Two full batches per shard keep every batch full; with one,
/// batch sizes and latency swing from run to run.
constexpr int kWindow = 4 * kMaxBatch;
/// Phase B's completions per statistics window, a fifth of a second or so.
constexpr size_t kStatsWindow = 2000;
/// Every this-many-th response is recomputed with BatchTopK.
constexpr int64_t kSampleEvery = 100;
/// Set-up takes tens of milliseconds, so it is timed this many times.
constexpr int kMinSetups = 15;

/// Deterministic factor fill standing in for a trained model: the
/// workload measures serving, not model quality.
hsgd::Model BuildModel(int32_t users, int32_t items, int k, uint32_t seed) {
  hsgd::Model model(users, items, k);
  uint32_t state = seed * 2654435761u + 1;
  auto fill = [&](float* row) {
    for (int f = 0; f < k; ++f) {
      row[f] = static_cast<float>(Lcg(&state) >> 8) / 16777216.0f - 0.5f;
    }
  };
  for (int32_t u = 0; u < users; ++u) fill(model.Row(u));
  for (int32_t v = 0; v < items; ++v) fill(model.Col(v));
  return model;
}

/// A few rated (excluded) items per user.
hsgd::Ratings BuildRated(int32_t users, int32_t items, uint32_t seed) {
  hsgd::Ratings rated;
  uint32_t state = seed * 40503u + 99;
  for (int32_t u = 0; u < users; ++u) {
    const int n = 3 + static_cast<int>(Uniform(&state, 8));
    for (int i = 0; i < n; ++i) {
      rated.push_back(
          {u, static_cast<int32_t>(Uniform(&state, items)), 1.0f});
    }
  }
  return rated;
}

struct Pending {
  std::future<hsgd::StatusOr<TopKResponse>> future;
  int64_t id = 0;
  int64_t due_ns = 0;
  int32_t user = 0;
  SpanId submit = kNoSpan;
};

struct Sampled {
  int32_t user = 0;
  std::vector<hsgd::ScoredItem> items;
};

struct PhaseResult {
  std::vector<double> latency_ms;  // completion order
  std::vector<int64_t> done_ns;    // completion times, same order
  std::vector<double> send_lag_ms;
  std::vector<double> submit_us;
  std::vector<Sampled> sampled;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t broken = 0;  // responses that break the serving invariants
  int64_t start_ns = 0;
  double seconds = 0.0;
};

/// Drives one phase. `open_loop` sends query i at start + i / qps;
/// otherwise a new query goes out whenever fewer than kWindow are
/// outstanding.
PhaseResult RunPhase(RecServer* server, int32_t num_users, bool open_loop,
                     double seconds, uint32_t seed, int64_t first_id,
                     SpanRecorder* spans, SpanId phase_span) {
  PhaseResult result;
  uint32_t state = seed * 7919u + (open_loop ? 1u : 2u);
  const int32_t hot = std::max<int32_t>(1, num_users / 5);
  auto next_user = [&] {
    // 80% of queries go to the hottest fifth of the users.
    if (Uniform(&state, 100) < 80) {
      return static_cast<int32_t>(
          Uniform(&state, static_cast<uint32_t>(hot)));
    }
    return static_cast<int32_t>(
        Uniform(&state, static_cast<uint32_t>(num_users)));
  };
  std::vector<Pending> outstanding;
  outstanding.reserve(kWindow * 2);
  int in_shard[kShards] = {};
  const int per_shard = kWindow / kShards;
  const int64_t start = NowNs();
  result.start_ns = start;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const double interval_ns = 1e9 / kOpenLoopQps;
  int64_t next = 0;
  for (;;) {
    int64_t now = NowNs();
    const int64_t due =
        open_loop ? start + static_cast<int64_t>(next * interval_ns) : now;
    const bool may_send = open_loop
                              ? due <= now && due < end
                              : now < end && outstanding.size() < kWindow;
    if (may_send) {
      Pending p;
      p.id = first_id + next;
      p.due_ns = due;
      // RecServer routes user u to shard u % shards.
      do {
        p.user = next_user();
      } while (!open_loop && in_shard[p.user % kShards] >= per_shard);
      ++in_shard[p.user % kShards];
      SpanRecorder::Scope span(spans, 0, "serve.Submit", "serve", p.id);
      p.submit = span.id();
      const int64_t t0 = NowNs();
      p.future = server->Submit({p.user, /*raw=*/false, kTopK});
      const int64_t t1 = NowNs();
      result.submit_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      result.send_lag_ms.push_back(static_cast<double>(t0 - due) * 1e-6);
      outstanding.push_back(std::move(p));
      ++result.sent;
      ++next;
      continue;
    }
    if (outstanding.empty() && now >= end) break;
    for (size_t i = 0; i < outstanding.size();) {
      Pending& p = outstanding[i];
      if (p.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      now = NowNs();
      auto response = p.future.get();
      const SpanId query =
          spans->Add(1, "serve.query", "serve", p.due_ns, now, phase_span,
                     p.id);
      spans->SetParent(p.submit, query);
      result.done_ns.push_back(now);
      if (!response.ok()) {
        // A failed query counts as missing every latency limit.
        ++result.failed;
        result.latency_ms.push_back(INFINITY);
      } else if (!ResponseIntact(*response, 1, 1, kTopK)) {
        ++result.broken;
        result.latency_ms.push_back(INFINITY);
      } else {
        ++result.ok;
        result.latency_ms.push_back(static_cast<double>(now - p.due_ns) *
                                    1e-6);
        if (p.id % kSampleEvery == 0) {
          result.sampled.push_back({p.user, response->items});
        }
      }
      --in_shard[p.user % kShards];
      outstanding[i] = std::move(outstanding.back());
      outstanding.pop_back();
    }
  }
  result.seconds = Seconds(start, NowNs());
  return result;
}

}  // namespace

void RunServe(const Options& options, Report* report) {
  if (!ThreadBudgetOk(kShards + 1, report)) {
    report->Check(false, "thread budget fits nproc");
    return;
  }
  SpanRecorder spans(options.trace, 2);
  spans.NameTrack(0, "generator");
  spans.NameTrack(1, "queries");

  const int32_t num_users = options.tiny ? 2000 : 60000;
  const int32_t num_items = options.tiny ? 1500 : 24000;
  const int rank = 32;
  const uint32_t seed = static_cast<uint32_t>(options.seed);
  const hsgd::Model model = BuildModel(num_users, num_items, rank, seed);
  const hsgd::Ratings rated = BuildRated(num_users, num_items, seed);
  char shape[128];
  std::snprintf(shape, sizeof(shape),
                "%d users x %d items, rank %d, %zu rated exclusions",
                num_users, num_items, rank, rated.size());
  report->Info("snapshot", shape);
  const auto kernel = hsgd::ResolveKernelKind(hsgd::KernelKind::kAuto);
  report->Info("kernel", hsgd::KernelKindName(
                             kernel.ok() ? *kernel : hsgd::KernelKind::kAuto));

  hsgd::serve::ServeConfig config;
  config.shards = kShards;
  config.max_batch = kMaxBatch;
  std::vector<double> setup_s;
  std::unique_ptr<RecServer> server;
  SnapshotPtr snapshot;
  for (int i = 0; i < kMinSetups; ++i) {
    if (server != nullptr) server->Shutdown();
    server.reset();
    snapshot.reset();
    SpanRecorder::Scope span(&spans, 0, "setup", "bench", i);
    const int64_t t0 = NowNs();
    auto built = FactorSnapshot::FromModel(model, rated, 1);
    auto created = built.ok() ? RecServer::Create(config, *built)
                              : hsgd::StatusOr<std::unique_ptr<RecServer>>(
                                    built.status());
    setup_s.push_back(Seconds(t0, NowNs()));
    report->Check(created.ok(), "FromModel + RecServer::Create");
    if (!created.ok()) return;
    snapshot = *built;
    server = *std::move(created);
  }

  PhaseResult a, b;
  {
    SpanRecorder::Scope span(&spans, 0, "phase.open_loop", "bench");
    a = RunPhase(server.get(), num_users, true, options.seconds / 3.0, seed,
                 0, &spans, span.id());
  }
  const hsgd::serve::ServeCounters after_a = server->counters();
  {
    SpanRecorder::Scope span(&spans, 0, "phase.closed_loop", "bench");
    b = RunPhase(server.get(), num_users, false, options.seconds * 2.0 / 3.0,
                 seed, a.sent, &spans, span.id());
  }
  const hsgd::serve::ServeCounters counters = server->counters();
  const double measured_s = a.seconds + b.seconds;

  // ---- Output checks --------------------------------------------------
  report->Attempt(a.sent + b.sent);
  report->Fail(a.failed + b.failed);
  report->Check(a.broken + b.broken == 0,
                "every response sorted, finite, <= k items, version 1");
  std::vector<float> scratch;
  int64_t mismatched = 0, sampled = 0;
  for (const PhaseResult* phase : {&a, &b}) {
    for (const Sampled& s : phase->sampled) {
      const hsgd::serve::TopKQuery query{s.user, kTopK};
      auto expect = hsgd::serve::BatchTopK(*snapshot, &query, 1, nullptr,
                                           &scratch);
      ++sampled;
      const bool same =
          expect[0].ok() && expect[0]->size() == s.items.size() &&
          std::memcmp(expect[0]->data(), s.items.data(),
                      s.items.size() * sizeof(hsgd::ScoredItem)) == 0;
      if (!same) ++mismatched;
    }
  }
  report->Check(sampled > 0 && mismatched == 0,
                "1% sample recomputed with BatchTopK matches bit for bit (" +
                    std::to_string(sampled) + " sampled)");

  // ---- End-to-end ------------------------------------------------------
  report->EndToEnd("setup_s", Median(setup_s),
                   "FromModel + RecServer::Create, median of " +
                       std::to_string(setup_s.size()));
  // Capacity and latency are medians over windows of kStatsWindow
  // completions, so a stretch in which other tenants on the host slow the
  // shards down does not set them.
  std::vector<double> rates;
  for (size_t end = kStatsWindow; end <= b.done_ns.size();
       end += kStatsWindow) {
    const int64_t from =
        end == kStatsWindow ? b.start_ns : b.done_ns[end - kStatsWindow - 1];
    rates.push_back(static_cast<double>(kStatsWindow) /
                    Seconds(from, b.done_ns[end - 1]));
  }
  const double whole_rate = static_cast<double>(b.ok) / b.seconds;
  if (rates.empty()) rates.push_back(whole_rate);
  const Quartiles q = ComputeQuartiles(rates);
  char windows[160];
  std::snprintf(windows, sizeof(windows),
                "windows min %.0f q1 %.0f median %.0f q3 %.0f max %.0f; "
                "whole phase %.0f",
                *std::min_element(rates.begin(), rates.end()), q.q1, q.q2,
                q.q3, *std::max_element(rates.begin(), rates.end()),
                whole_rate);
  report->Info("capacity_per_s", windows);
  report->EndToEnd("throughput_per_s", Median(rates),
                   "phase B: median of " + std::to_string(rates.size()) +
                       " windows' responses per s, " +
                       std::to_string(kWindow) + " outstanding");
  ReportWindowMedian(report, true, "latency_p50_ms", b.latency_ms,
                     kStatsWindow, 50);
  ReportWindowMedian(report, true, "latency_p99_ms", b.latency_ms,
                     kStatsWindow, 99);
  report->Info("open_loop", std::to_string(static_cast<int>(kOpenLoopQps)) +
                                " q/s for " + std::to_string(a.seconds) +
                                " s, " + std::to_string(a.sent) + " sent");

  // ---- Per-layer ------------------------------------------------------
  ReportTail(report, false, "serve.query_p50_ms", a.latency_ms, 50);
  ReportTail(report, false, "serve.query_p99_ms", a.latency_ms, 99);
  ReportTail(report, false, "serve.send_lag_ms", a.send_lag_ms, 99);
  std::vector<double> submit = a.submit_us;
  submit.insert(submit.end(), b.submit_us.begin(), b.submit_us.end());
  report->Layer("serve.submit_us", Median(submit), "median Submit call");
  report->Layer("serve.shard_us_per_query",
                b.ok > 0 ? kShards * b.seconds * 1e6 / b.ok : 0.0,
                "phase B: shards x time / ok");
  report->Layer("serve.mean_batch",
                counters.batches > 0
                    ? static_cast<double>(counters.ok) / counters.batches
                    : 0.0,
                "ok / batches, both phases");
  report->Layer("serve.shed", static_cast<double>(counters.shed_deadline));
  report->Layer("serve.rejected", static_cast<double>(counters.rejected));
  report->Layer("serve.deadline_miss",
                static_cast<double>(counters.deadline_miss));
  report->Info("phase_a_batches",
               std::to_string(after_a.batches) + " for " +
                   std::to_string(after_a.ok) + " ok");

  if (options.trace) {
    FinishTrace(spans, options, measured_s, report);
    ProbeAcquire([&] { return server->CurrentSnapshot(); }, report);
    ProbeScoring(*snapshot, hsgd::KernelKind::kAuto, report);
    ProbeSnapshot(
        [&] {
          auto snap = FactorSnapshot::FromModel(model, rated, 1);
          return snap.ok() ? *snap : nullptr;
        },
        report);
  }
  server->Shutdown();
  server.reset();
  report->EndToEnd("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
