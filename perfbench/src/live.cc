// Workload `live`: an OnlineTrainer over a warm session, with its WAL
// armed, ingesting an open-loop rating stream while a query generator
// thread sends open-loop raw-id queries to the one-shard RecServer it
// publishes into. Each round ingests every rating that is due, trains the
// dirty blocks, then publishes.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/session.h"
#include "probes.h"
#include "serve/server.h"
#include "stream/stream.h"
#include "stream/wal.h"
#include "workloads.h"

namespace perfbench {

namespace {

using hsgd::serve::RecServer;
using hsgd::stream::OnlineTrainer;

constexpr int kWarmEpochs = 2;
constexpr double kRatingsPerSecond = 20000.0;
constexpr double kQueriesPerSecond = 500.0;
constexpr int kEvalThreads = 1;
constexpr int kTopK = 10;
constexpr int kMinSetups = 3;
/// Raw ids far from the dense index space, so an identity fallback would
/// answer wrong instead of silently right.
constexpr int64_t kUserBase = 10000000;
constexpr int64_t kItemBase = 20000000;
/// One query in this many asks for a raw user that is never streamed and
/// must stay NotFound.
constexpr uint32_t kUnknownEvery = 32;

struct Live {
  std::unique_ptr<RecServer> server;
  std::unique_ptr<OnlineTrainer> trainer;
};

struct QueryResult {
  std::vector<double> latency_ms;
  std::vector<double> send_lag_ms;
  std::vector<double> submit_us;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t broken = 0;
  int64_t unknown_ok = 0;  // never-streamed ids answered NotFound
};

/// Open-loop raw-id queries until `stop`; query i is due at
/// start + i / kQueriesPerSecond.
void GenerateQueries(RecServer* server, int32_t warm_users, uint32_t seed,
                     const std::atomic<bool>* stop,
                     const std::atomic<uint64_t>* max_version,
                     SpanRecorder* spans, QueryResult* result) {
  struct Pending {
    std::future<hsgd::StatusOr<hsgd::serve::TopKResponse>> future;
    int64_t id = 0;
    int64_t due_ns = 0;
    bool unknown = false;
    SpanId submit = kNoSpan;
  };
  std::vector<Pending> outstanding;
  uint32_t state = seed * 2246822519u + 3;
  const int64_t start = NowNs();
  const double interval_ns = 1e9 / kQueriesPerSecond;
  int64_t next = 0;
  for (;;) {
    int64_t now = NowNs();
    const int64_t due = start + static_cast<int64_t>(next * interval_ns);
    const bool stopping = stop->load(std::memory_order_relaxed);
    if (!stopping && due <= now) {
      Pending p;
      p.id = next;
      p.due_ns = due;
      p.unknown = Uniform(&state, kUnknownEvery) == 0;
      const int64_t user =
          p.unknown
              ? kUserBase - 1 - static_cast<int64_t>(Uniform(&state, 1000))
              : kUserBase + static_cast<int64_t>(Uniform(
                                &state, static_cast<uint32_t>(warm_users)));
      SpanRecorder::Scope span(spans, 1, "serve.Submit", "serve", p.id);
      p.submit = span.id();
      const int64_t t0 = NowNs();
      p.future = server->Submit({user, /*raw=*/true, kTopK});
      result->submit_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      result->send_lag_ms.push_back(static_cast<double>(t0 - due) * 1e-6);
      outstanding.push_back(std::move(p));
      ++result->sent;
      ++next;
      continue;
    }
    if (stopping && outstanding.empty()) break;
    for (size_t i = 0; i < outstanding.size();) {
      Pending& p = outstanding[i];
      if (p.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      now = NowNs();
      auto response = p.future.get();
      const SpanId query = spans->Add(2, "serve.query", "serve", p.due_ns,
                                      now, kNoSpan, p.id);
      spans->SetParent(p.submit, query);
      if (p.unknown) {
        if (response.status().code() == hsgd::StatusCode::kNotFound) {
          ++result->unknown_ok;
        } else {
          ++result->broken;
        }
      } else if (!response.ok()) {
        ++result->failed;
        result->latency_ms.push_back(INFINITY);
      } else if (!ResponseIntact(*response, 1, max_version->load(), kTopK)) {
        ++result->broken;
      } else {
        ++result->ok;
        result->latency_ms.push_back(static_cast<double>(now - p.due_ns) *
                                     1e-6);
      }
      outstanding[i] = std::move(outstanding.back());
      outstanding.pop_back();
    }
    if (outstanding.empty() && !stopping) {
      // Nothing to watch: sleep until the next query is due.
      const int64_t wait = start + static_cast<int64_t>(next * interval_ns) -
                           NowNs();
      if (wait > 200000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait - 100000));
      }
    }
  }
}

}  // namespace

void RunLive(const Options& options, Report* report) {
  // Round thread + eval pool, the server's shard, the query generator.
  if (!ThreadBudgetOk(kEvalThreads + 1 + 1 + 1, report)) {
    report->Check(false, "thread budget fits nproc");
    return;
  }
  SpanRecorder spans(options.trace, 3);
  spans.NameTrack(0, "rounds");
  spans.NameTrack(1, "query generator");
  spans.NameTrack(2, "queries");

  // ---- Inputs ----------------------------------------------------------
  hsgd::SyntheticSpec spec;
  spec.num_rows = options.tiny ? 600 : 10000;
  spec.num_cols = options.tiny ? 400 : 4000;
  spec.train_nnz = options.tiny ? 12000 : 1600000;
  spec.test_nnz = spec.train_nnz / 10;
  spec.params.k = 32;
  spec.params.learning_rate = 0.01f;
  auto generated = hsgd::GenerateSynthetic(spec, options.seed);
  report->Check(generated.ok(), "synthetic warm dataset generated");
  if (!generated.ok()) return;
  const hsgd::Dataset& warm = *generated;
  const int32_t warm_users = warm.num_rows;

  hsgd::stream::SyntheticStreamSpec stream_spec;
  stream_spec.warm_users = warm.num_rows;
  stream_spec.warm_items = warm.num_cols;
  stream_spec.cold_user_rate = 0.01;
  stream_spec.cold_item_rate = 0.005;
  stream_spec.raw_user_base = kUserBase;
  stream_spec.raw_item_base = kItemBase;
  stream_spec.seed = options.seed + 17;
  hsgd::stream::SyntheticStream arrivals(stream_spec);
  const int64_t total = static_cast<int64_t>(kRatingsPerSecond *
                                             options.seconds);
  const std::vector<hsgd::io::RawRating> stream = arrivals.NextBatch(total);
  char shape[160];
  std::snprintf(shape, sizeof(shape),
                "warm %d x %d, %lld ratings, k=%d; stream %lld ratings at "
                "%.0f/s, queries at %.0f/s",
                warm.num_rows, warm.num_cols,
                static_cast<long long>(warm.train_size()), warm.params.k,
                static_cast<long long>(total), kRatingsPerSecond,
                kQueriesPerSecond);
  report->Info("inputs", shape);

  hsgd::TrainConfig config;
  config.algorithm = hsgd::Algorithm::kHsgdStar;
  config.seed = options.seed;
  config.max_epochs = 1 << 20;
  config.use_dataset_target = false;
  config.eval_threads = kEvalThreads;
  const auto kernel = hsgd::ResolveKernelKind(config.kernel);
  report->Info("kernel", hsgd::KernelKindName(
                             kernel.ok() ? *kernel : hsgd::KernelKind::kAuto));

  hsgd::stream::OnlineTrainer::WalIngestOptions wal;
  wal.wal.dir = options.out_dir + "/live-wal";
  wal.wal.fsync_every = 1;

  // ---- Set-up: everything before the first rating is due ---------------
  std::vector<double> setup_s;
  Live live;
  auto set_up = [&](int64_t id) -> bool {
    if (live.server != nullptr) live.server->Shutdown();
    live.trainer.reset();
    live.server.reset();
    RemoveTree(wal.wal.dir);
    SpanRecorder::Scope span(&spans, 0, "setup", "bench", id);
    const int64_t t0 = NowNs();
    auto session = hsgd::Session::Create(warm, config);
    if (!session.ok()) return false;
    for (int e = 0; e < kWarmEpochs; ++e) {
      if (!(*session)->RunEpoch().ok()) return false;
    }
    hsgd::serve::ServeConfig serve_config;
    serve_config.shards = 1;
    auto server = RecServer::Create(serve_config, nullptr);
    if (!server.ok()) return false;
    RecServer* srv = server->get();
    hsgd::io::IdMap users, items;
    for (int32_t i = 0; i < warm.num_rows; ++i) users.Assign(kUserBase + i);
    for (int32_t i = 0; i < warm.num_cols; ++i) items.Assign(kItemBase + i);
    auto trainer = OnlineTrainer::Create(
        *std::move(session), std::move(users), std::move(items),
        [srv](hsgd::serve::SnapshotPtr snap) {
          return srv->Publish(std::move(snap));
        },
        nullptr, &wal);
    if (!trainer.ok()) return false;
    if (!(*trainer)->PublishSnapshot().ok()) return false;
    setup_s.push_back(Seconds(t0, NowNs()));
    live.server = *std::move(server);
    live.trainer = *std::move(trainer);
    return true;
  };
  for (int i = 0; i < kMinSetups; ++i) {
    const bool ok = set_up(i);
    report->Check(ok, "live set-up");
    if (!ok) return;
  }
  RecServer* server = live.server.get();
  OnlineTrainer* trainer = live.trainer.get();

  // ---- Measured phase --------------------------------------------------
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> max_version{trainer->version()};
  QueryResult queries;
  std::thread generator(GenerateQueries, server, warm_users,
                        static_cast<uint32_t>(options.seed), &stop,
                        &max_version, &spans, &queries);
  // Stops and joins the generator on every way out of this scope.
  struct Joiner {
    std::atomic<bool>* stop;
    std::thread* thread;
    ~Joiner() {
      stop->store(true);
      if (thread->joinable()) thread->join();
    }
  } joiner{&stop, &generator};

  std::vector<double> ingest_s, train_s, publish_s, batch_ratings,
      dirty_blocks, backlog, arrival_lag_ms, freshness_ms;
  freshness_ms.reserve(static_cast<size_t>(total));
  std::vector<std::vector<hsgd::io::RawRating>> batches;
  int64_t cold_probes = 0, cold_violations = 0, publishes_failed = 0;
  double last_rmse = NAN;
  const int64_t start = NowNs();
  const double per_rating_ns = 1e9 / kRatingsPerSecond;
  auto due_ns = [&](int64_t i) {
    return start + static_cast<int64_t>(static_cast<double>(i) * per_rating_ns);
  };
  int64_t ingested = 0;
  int64_t round = 0;
  while (ingested < total) {
    const int64_t now = NowNs();
    const int64_t due = std::min<int64_t>(
        total, static_cast<int64_t>(static_cast<double>(now - start) /
                                    per_rating_ns) + 1);
    if (due <= ingested) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns(ingested) - now));
      continue;
    }
    SpanRecorder::Scope round_span(&spans, 0, "round", "bench", round);
    arrival_lag_ms.push_back(static_cast<double>(now - due_ns(ingested)) *
                             1e-6);
    backlog.push_back(static_cast<double>(due - ingested));
    batches.emplace_back(stream.begin() + ingested, stream.begin() + due);
    const int32_t users_before = trainer->users().size();
    {
      SpanRecorder::Scope span(&spans, 0, "stream.Ingest", "stream", round);
      const int64_t t0 = NowNs();
      auto result = trainer->Ingest(batches.back());
      ingest_s.push_back(Seconds(t0, NowNs()));
      report->Attempt();
      if (!result.ok()) {
        report->Fail();
        report->Check(false, "Ingest: " + result.status().ToString());
        break;
      }
    }
    batch_ratings.push_back(static_cast<double>(due - ingested));
    // A cold user streamed this round stays invisible until the publish
    // that covers it; probed from this thread so the order is exact.
    int64_t cold_probe = -1;
    if (trainer->users().size() > users_before) {
      cold_probe = trainer->users().Raw(users_before);
      ++cold_probes;
      auto early = server->Query({cold_probe, /*raw=*/true, kTopK});
      if (early.status().code() != hsgd::StatusCode::kNotFound) {
        ++cold_violations;
      }
    }
    dirty_blocks.push_back(
        static_cast<double>(trainer->session().pending_dirty_blocks()));
    {
      SpanRecorder::Scope span(&spans, 0, "stream.TrainDirty", "stream",
                               round);
      const int64_t t0 = NowNs();
      auto point = trainer->TrainDirty();
      train_s.push_back(Seconds(t0, NowNs()));
      report->Attempt();
      if (!point.ok()) {
        report->Fail();
        report->Check(false, "TrainDirty: " + point.status().ToString());
        break;
      }
      last_rmse = point->test_rmse;
    }
    {
      SpanRecorder::Scope span(&spans, 0, "stream.PublishSnapshot",
                               "stream", round);
      max_version.store(trainer->version() + 1);
      const int64_t t0 = NowNs();
      auto published = trainer->PublishSnapshot();
      const int64_t t1 = NowNs();
      publish_s.push_back(Seconds(t0, t1));
      report->Attempt();
      if (!published.ok()) {
        report->Fail();
        ++publishes_failed;
      } else {
        for (int64_t i = ingested; i < due; ++i) {
          freshness_ms.push_back(static_cast<double>(t1 - due_ns(i)) * 1e-6);
        }
      }
    }
    if (cold_probe >= 0 &&
        !server->Query({cold_probe, /*raw=*/true, kTopK}).ok()) {
      ++cold_violations;
    }
    ingested = due;
    ++round;
  }
  const double measured_s = Seconds(start, NowNs());
  stop.store(true);
  generator.join();

  // ---- Output checks --------------------------------------------------
  report->Attempt(queries.sent);
  report->Fail(queries.failed);
  report->Check(queries.broken == 0,
                "every response intact, unknown users NotFound");
  report->Check(cold_violations == 0,
                "cold users NotFound before their publish, served after (" +
                    std::to_string(cold_probes) + " probed)");
  report->Check(publishes_failed == 0, "every publish accepted");
  report->Check(ingested == total, "every due rating ingested");
  report->Check(std::isfinite(last_rmse), "test RMSE finite");
  {
    auto replay = hsgd::stream::Wal::Replay(wal.wal.dir);
    bool same = replay.ok() && replay->records.size() == batches.size();
    for (size_t i = 0; same && i < batches.size(); ++i) {
      const auto& got = replay->records[i].batch;
      same = got.size() == batches[i].size();
      for (size_t j = 0; same && j < got.size(); ++j) {
        same = got[j].user == batches[i][j].user &&
               got[j].item == batches[i][j].item &&
               got[j].rating == batches[i][j].rating;
      }
    }
    report->Check(same, "WAL replay returns exactly the ingested batches");
  }

  // ---- End-to-end ------------------------------------------------------
  report->EndToEnd("setup_s", Median(setup_s),
                   "Create + warm epochs + server + trainer + first "
                   "publish, median of " +
                       std::to_string(setup_s.size()));
  report->EndToEnd("throughput_per_s", static_cast<double>(round) / measured_s,
                   "snapshot publishes per s");
  // Medians over windows of one second of ratings.
  ReportWindowMedian(report, true, "latency_p50_ms", freshness_ms,
                     static_cast<size_t>(kRatingsPerSecond), 50);
  ReportWindowMedian(report, true, "latency_p99_ms", freshness_ms,
                     static_cast<size_t>(kRatingsPerSecond), 99);

  // ---- Per-layer ------------------------------------------------------
  const hsgd::Session& session = trainer->session();
  const hsgd::TrainStats stats = session.stats();
  report->Layer("session.epoch_s", Median(train_s),
                "median incremental epoch (TrainDirty)");
  report->Layer("stream.ingest_s", Median(ingest_s), "median Ingest");
  report->Layer("stream.train_dirty_s", Median(train_s), "median TrainDirty");
  report->Layer("stream.publish_s", Median(publish_s),
                "median PublishSnapshot");
  report->Layer("stream.batch_ratings", Median(batch_ratings), "median");
  report->Layer("stream.dirty_blocks", Median(dirty_blocks), "median");
  report->Layer("stream.rounds", static_cast<double>(round));
  report->Layer("stream.backlog_ratings",
                backlog.empty()
                    ? 0.0
                    : *std::max_element(backlog.begin(), backlog.end()),
                "most ratings due at one round start");
  report->Layer("stream.arrival_lag_ms", Median(arrival_lag_ms),
                "median age of the oldest due rating at round start");
  report->Layer("sched.block_tasks", static_cast<double>(stats.sim.block_tasks),
                "warm + incremental epochs");
  report->Layer("sched.steals",
                static_cast<double>(stats.sim.stolen_by_gpus +
                                    stats.sim.stolen_by_cpus));
  report->Layer("sim.alpha", stats.sim.alpha);
  report->Layer("sim.update_rate_cv", stats.sim.update_rate_cv);
  report->Layer("sim.epoch_s", stats.sim.seconds / session.epochs_run());
  const double to_target = session.trace().TimeToReach(warm.target_rmse);
  report->Layer("sim.time_to_target_s",
                to_target < hsgd::kSimTimeNever ? to_target : 0.0,
                to_target < hsgd::kSimTimeNever ? "" : "target not reached");
  report->Layer("quality.test_rmse", last_rmse, "last TrainDirty");
  ReportTail(report, false, "serve.query_p50_ms", queries.latency_ms, 50);
  ReportTail(report, false, "serve.query_p99_ms", queries.latency_ms, 99);
  ReportTail(report, false, "serve.send_lag_ms", queries.send_lag_ms, 99);
  report->Layer("serve.submit_us", Median(queries.submit_us),
                "median Submit call");
  const hsgd::serve::ServeCounters counters = server->counters();
  report->Layer("serve.mean_batch",
                counters.batches > 0
                    ? static_cast<double>(counters.ok) / counters.batches
                    : 0.0);
  report->Layer("serve.shed", static_cast<double>(counters.shed_deadline));
  report->Layer("serve.rejected", static_cast<double>(counters.rejected));
  report->Layer("serve.deadline_miss",
                static_cast<double>(counters.deadline_miss));
  report->Info("rounds", std::to_string(round) + " in " +
                             std::to_string(measured_s) + " s; " +
                             std::to_string(queries.sent) + " queries");

  if (options.trace) {
    FinishTrace(spans, options, measured_s, report);
    ProbeAcquire([&] { return server->CurrentSnapshot(); }, report);
    ProbeEval(session.model(), session.dataset(), kEvalThreads,
              session.kernel(), report);
    report->Layer("session.sweep_s",
                  report->Value("session.epoch_s") -
                      report->Value("session.eval_s"),
                  "epoch - eval");
    ProbeSgdKernels(session.model(), session.dataset().train,
                    session.dataset().params, session.kernel(), report);
    ProbeSnapshot(
        [&] {
          auto snap = hsgd::serve::FactorSnapshot::FromSession(
              session, trainer->version() + 1, &trainer->users(),
              &trainer->items());
          return snap.ok() ? *snap : nullptr;
        },
        report);
    ProbeScoring(*server->CurrentSnapshot(), session.kernel(), report);
    {
      const std::string ckpt = options.out_dir + "/live.ckpt";
      const int64_t t0 = NowNs();
      const hsgd::Status saved = trainer->Checkpoint(ckpt);
      report->Layer("ckpt.save_s", Seconds(t0, NowNs()),
                    "probe: OnlineTrainer::Checkpoint");
      report->Check(saved.ok(), "checkpoint probe");
      if (saved.ok()) {
        report->Layer("ckpt.bytes",
                      static_cast<double>(std::filesystem::file_size(ckpt)));
      }
      std::filesystem::remove(ckpt);
    }
    {
      // Wal::Append of the recorded batches into a scratch log.
      const std::string dir = options.out_dir + "/live-wal-probe";
      RemoveTree(dir);
      hsgd::stream::WalOptions probe_options;
      probe_options.dir = dir;
      probe_options.fsync_every = 1;
      auto log = hsgd::stream::Wal::Open(probe_options);
      std::vector<double> append_s;
      for (size_t i = 0; log.ok() && i < batches.size(); ++i) {
        const int64_t t0 = NowNs();
        auto appended = (*log)->Append(batches[i]);
        append_s.push_back(Seconds(t0, NowNs()));
        report->Check(appended.ok(), "WAL append probe");
      }
      report->Layer("stream.wal_append_s", Median(append_s),
                    "probe: median Wal::Append, fsync each");
      if (log.ok()) log->reset();
      RemoveTree(dir);
    }
  }
  server->Shutdown();
  live.trainer.reset();
  live.server.reset();
  RemoveTree(wal.wal.dir);
  report->EndToEnd("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
