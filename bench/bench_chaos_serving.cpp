// Serving chaos gate: the end-to-end resilience bench for the online
// train+serve path, reporting BENCH_chaos.json (hsgd.run_report/v1).
//
// Scenarios:
//   parity    the WAL must be a pure durability tax: the same seeded
//             ingest -> TrainDirty cadence runs once without a WAL and
//             once with one (faults disabled), and the final factors
//             must match bit for bit. Also proves the log holds exactly
//             one record per ingest batch.
//   recovery  crash recovery must be bit-identical: checkpoint mid-run,
//             stream more rounds, capture the factors, tear the WAL
//             tail mid-append (byte-level failpoint) and destroy the
//             trainer. OnlineTrainer::Recover + re-driving the
//             unapplied records with the original cadence must land on
//             the SAME factor bits, with the torn tail truncated.
//   chaos     a live RecServer (adaptive overload control on) serves
//             client threads while the trainer streams and publishes
//             under a scripted serve fault plan: poisoned publishes
//             must be rejected with serving uninterrupted on the
//             last-known-good snapshot, injected WAL IO errors must be
//             absorbed by bounded retries, a slow shard must trip the
//             circuit breaker, and a query storm must be survived with
//             zero torn responses and bounded served-latency p99.
//
// Acceptance (exit 1, "accepted": false) is the conjunction of all
// three scenario gates; the report embeds the serve.breaker.* and
// stream.wal.* metric families for CI to archive.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_serve_common.h"
#include "fault/fault_plan.h"
#include "fault/serve_injector.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stream/stream.h"
#include "stream/wal.h"

namespace hsgd::bench {
namespace {

using serve::RecServer;
using serve::ServeConfig;
using stream::OnlineTrainer;
using stream::SyntheticStream;
using stream::SyntheticStreamSpec;
using stream::Wal;

constexpr int64_t kUserBase = 10000000;
constexpr int64_t kItemBase = 20000000;

/// Shared sizing for all three scenarios.
struct ChaosShape {
  int32_t warm_rows = 0;
  int32_t warm_cols = 0;
  int64_t batch = 0;
  SyntheticSpec spec;
};

ChaosShape MakeShape(const BenchContext& ctx) {
  ChaosShape shape;
  shape.warm_rows = std::max<int32_t>(
      300, static_cast<int32_t>(2400 * ctx.scale_mult));
  shape.warm_cols = std::max<int32_t>(
      240, static_cast<int32_t>(1800 * ctx.scale_mult));
  shape.batch = std::max<int64_t>(
      150, static_cast<int64_t>(1000 * ctx.scale_mult));
  shape.spec.num_rows = shape.warm_rows;
  shape.spec.num_cols = shape.warm_cols;
  shape.spec.train_nnz =
      static_cast<int64_t>(shape.warm_rows) * shape.warm_cols / 25;
  shape.spec.test_nnz = shape.spec.train_nnz / 10;
  shape.spec.params.k = 16;
  shape.spec.params.learning_rate = 0.01f;
  return shape;
}

/// Warm-trained session over `warm` (a fresh copy each call, so every
/// scenario leg starts from the identical state).
std::unique_ptr<Session> WarmSession(const Dataset& warm,
                                     const BenchContext& ctx,
                                     int warm_epochs, int epoch_budget) {
  TrainConfig cfg = MakeConfig(Algorithm::kHsgdStar, ctx, warm);
  cfg.use_dataset_target = false;
  cfg.max_epochs = epoch_budget;
  auto session = Session::Create(warm, cfg);
  HSGD_CHECK_OK(session.status());
  for (int e = 0; e < warm_epochs; ++e) {
    HSGD_CHECK_OK((*session)->RunEpoch().status());
  }
  return *std::move(session);
}

io::IdMap WarmUsers(int32_t rows) {
  io::IdMap map;
  for (int32_t i = 0; i < rows; ++i) map.Assign(kUserBase + i);
  return map;
}

io::IdMap WarmItems(int32_t cols) {
  io::IdMap map;
  for (int32_t i = 0; i < cols; ++i) map.Assign(kItemBase + i);
  return map;
}

SyntheticStreamSpec ArrivalSpec(const ChaosShape& shape, uint64_t seed) {
  SyntheticStreamSpec spec;
  spec.warm_users = shape.warm_rows;
  spec.warm_items = shape.warm_cols;
  spec.cold_user_rate = 0.01;
  spec.cold_item_rate = 0.005;
  spec.raw_user_base = kUserBase;
  spec.raw_item_base = kItemBase;
  spec.seed = seed;
  return spec;
}

void WipeDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ---- Scenario 1: WAL-on/off parity -----------------------------------

struct ParityResult {
  int rounds = 0;
  int64_t wal_records = 0;
  bool factors_identical = false;
};

ParityResult RunParity(const BenchContext& ctx, const ChaosShape& shape,
                       int warm_epochs, int rounds) {
  ParityResult result;
  result.rounds = rounds;
  auto ds = GenerateSynthetic(shape.spec, ctx.seed);
  HSGD_CHECK_OK(ds.status());
  const int epoch_budget = warm_epochs + rounds + 8;
  const std::string wal_dir = "bench_chaos_parity_wal";

  auto run_leg = [&](bool with_wal, std::vector<float>* p,
                     std::vector<float>* q) {
    auto session = WarmSession(*ds, ctx, warm_epochs, epoch_budget);
    OnlineTrainer::WalIngestOptions wal_options;
    wal_options.wal.dir = wal_dir;
    if (with_wal) WipeDir(wal_dir);
    auto trainer = OnlineTrainer::Create(
        std::move(session), WarmUsers(shape.warm_rows),
        WarmItems(shape.warm_cols), nullptr, nullptr,
        with_wal ? &wal_options : nullptr);
    HSGD_CHECK_OK(trainer.status());
    SyntheticStream arrivals(ArrivalSpec(shape, ctx.seed + 17));
    for (int round = 0; round < rounds; ++round) {
      HSGD_CHECK_OK(
          (*trainer)->Ingest(arrivals.NextBatch(shape.batch)).status());
      HSGD_CHECK_OK((*trainer)->TrainDirty().status());
    }
    *p = (*trainer)->session().model().DenseP();
    *q = (*trainer)->session().model().DenseQ();
  };

  std::vector<float> p_plain, q_plain, p_wal, q_wal;
  run_leg(/*with_wal=*/false, &p_plain, &q_plain);
  run_leg(/*with_wal=*/true, &p_wal, &q_wal);
  result.factors_identical = p_plain == p_wal && q_plain == q_wal;

  auto replay = Wal::Replay(wal_dir);
  HSGD_CHECK_OK(replay.status());
  result.wal_records = static_cast<int64_t>(replay->records.size());
  WipeDir(wal_dir);

  std::printf("parity: %d rounds, %lld WAL records, factors %s\n",
              rounds, static_cast<long long>(result.wal_records),
              result.factors_identical ? "bit-identical" : "DIVERGED");
  return result;
}

// ---- Scenario 2: crash recovery bit-identity -------------------------

struct RecoveryResult {
  uint64_t checkpoint_seq = 0;
  int64_t replayed_batches = 0;
  int64_t unapplied = 0;
  int64_t truncated_bytes = 0;
  bool factors_identical = false;
};

RecoveryResult RunRecovery(const BenchContext& ctx, const ChaosShape& shape,
                           int warm_epochs, int pre_rounds,
                           int post_rounds) {
  RecoveryResult result;
  auto ds = GenerateSynthetic(shape.spec, ctx.seed + 1);
  HSGD_CHECK_OK(ds.status());
  const Dataset warm = *ds;
  const int epoch_budget = warm_epochs + pre_rounds + post_rounds + 8;
  const std::string wal_dir = "bench_chaos_recovery_wal";
  const std::string ckpt_path = "bench_chaos_recovery.ckpt";
  WipeDir(wal_dir);
  std::remove(ckpt_path.c_str());

  OnlineTrainer::WalIngestOptions wal_options;
  wal_options.wal.dir = wal_dir;

  // Original run: checkpoint after pre_rounds, stream post_rounds more,
  // capture the factors the recovered trainer must reproduce.
  std::vector<float> p_before, q_before;
  {
    auto session = WarmSession(warm, ctx, warm_epochs, epoch_budget);
    auto trainer = OnlineTrainer::Create(
        std::move(session), WarmUsers(shape.warm_rows),
        WarmItems(shape.warm_cols), nullptr, nullptr, &wal_options);
    HSGD_CHECK_OK(trainer.status());
    SyntheticStream arrivals(ArrivalSpec(shape, ctx.seed + 29));
    for (int round = 0; round < pre_rounds; ++round) {
      HSGD_CHECK_OK(
          (*trainer)->Ingest(arrivals.NextBatch(shape.batch)).status());
      HSGD_CHECK_OK((*trainer)->TrainDirty().status());
    }
    HSGD_CHECK_OK((*trainer)->Checkpoint(ckpt_path));
    for (int round = 0; round < post_rounds; ++round) {
      HSGD_CHECK_OK(
          (*trainer)->Ingest(arrivals.NextBatch(shape.batch)).status());
      HSGD_CHECK_OK((*trainer)->TrainDirty().status());
    }
    p_before = (*trainer)->session().model().DenseP();
    q_before = (*trainer)->session().model().DenseQ();

    // The crash: the next append dies a few bytes in, leaving a REAL
    // torn tail on disk. The batch was never acknowledged, so the
    // recovery target stays the state captured above.
    stream::SetWalWriteFailpoint(7);
    auto torn = (*trainer)->Ingest(arrivals.NextBatch(shape.batch));
    stream::SetWalWriteFailpoint(-1);
    HSGD_CHECK(!torn.ok());
  }

  auto recovered = OnlineTrainer::Recover(
      warm, WarmUsers(shape.warm_rows), WarmItems(shape.warm_cols),
      ckpt_path, wal_options, nullptr);
  HSGD_CHECK_OK(recovered.status());
  result.checkpoint_seq = recovered->checkpoint_seq;
  result.replayed_batches = recovered->replayed_batches;
  result.unapplied = static_cast<int64_t>(recovered->unapplied.size());
  result.truncated_bytes = recovered->truncated_bytes;

  // Re-drive the unapplied tail with the original one-batch-per-round
  // cadence, then compare bits.
  OnlineTrainer* trainer = recovered->trainer.get();
  for (const stream::WalRecord& record : recovered->unapplied) {
    HSGD_CHECK_OK(trainer->ReplayIngest(record).status());
    HSGD_CHECK_OK(trainer->TrainDirty().status());
  }
  result.factors_identical =
      p_before == trainer->session().model().DenseP() &&
      q_before == trainer->session().model().DenseQ();

  WipeDir(wal_dir);
  std::remove(ckpt_path.c_str());
  std::printf("recovery: checkpoint seq %llu, %lld replayed + %lld "
              "re-driven, %lld torn bytes truncated, factors %s\n",
              static_cast<unsigned long long>(result.checkpoint_seq),
              static_cast<long long>(result.replayed_batches),
              static_cast<long long>(result.unapplied),
              static_cast<long long>(result.truncated_bytes),
              result.factors_identical ? "bit-identical" : "DIVERGED");
  return result;
}

// ---- Scenario 3: live chaos ------------------------------------------

struct ChaosResult {
  int rounds = 0;
  int64_t queries = 0;
  int64_t ok = 0;
  int64_t shed = 0;     // typed Unavailable/DeadlineExceeded (expected)
  int64_t failed = 0;   // any other error (never expected)
  int64_t torn = 0;
  int64_t publishes = 0;
  int64_t publish_rejected = 0;
  int64_t poisons_fired = 0;
  int64_t wal_faults_fired = 0;
  int64_t wal_retries = 0;
  int64_t breaker_opens = 0;
  int64_t breaker_rejected = 0;
  int64_t post_fault_probe_failures = 0;
  double p99_ok_latency_s = 0.0;
  double train_wall_s = 0.0;
};

ChaosResult RunChaos(const BenchContext& ctx, const ChaosShape& shape,
                     obs::MetricsRegistry* registry, int warm_epochs,
                     int rounds, int clients, const FaultPlan& plan,
                     double budget_s, double round_s) {
  ChaosResult result;
  result.rounds = rounds;
  auto ds = GenerateSynthetic(shape.spec, ctx.seed + 2);
  HSGD_CHECK_OK(ds.status());
  const std::string wal_dir = "bench_chaos_live_wal";
  WipeDir(wal_dir);

  ServeConfig serve_config;
  serve_config.shards = 2;
  serve_config.max_batch = 16;
  serve_config.max_queue = 512;
  serve_config.latency_budget_s = budget_s;
  serve_config.kernel = ctx.kernel;
  serve_config.breaker_enabled = true;

  auto injector = ServeFaultInjector::Create(plan, serve_config.shards);
  HSGD_CHECK_OK(injector.status());
  ServeFaultInjector* chaos = injector->get();

  auto server = RecServer::Create(serve_config, nullptr, registry,
                                  ctx.obs.tracer.get());
  HSGD_CHECK_OK(server.status());
  RecServer* srv = server->get();
  // A slow shard stalls its worker by (slowdown x budget) per batch —
  // far past the deadline, so sustained windows must trip the breaker.
  srv->SetBatchStallHook([chaos, budget_s](int shard) {
    const double slowdown = chaos->ShardSlowdown(shard);
    return slowdown > 1.0 ? slowdown * budget_s : 0.0;
  });

  auto session = WarmSession(*ds, ctx, warm_epochs, warm_epochs + rounds + 8);
  OnlineTrainer::WalIngestOptions wal_options;
  wal_options.wal.dir = wal_dir;
  auto trainer = OnlineTrainer::Create(
      std::move(session), WarmUsers(shape.warm_rows),
      WarmItems(shape.warm_cols),
      [srv, chaos](serve::SnapshotPtr snap) {
        if (chaos->PoisonThisPublish()) {
          snap = serve::FactorSnapshot::PoisonedCopy(*snap);
        }
        return srv->Publish(std::move(snap));
      },
      registry, &wal_options);
  HSGD_CHECK_OK(trainer.status());
  OnlineTrainer* ot = trainer->get();
  ot->wal()->SetIoFaultHook([chaos] { return chaos->ConsumeWalFault(); });

  std::atomic<uint64_t> max_version{1};
  HSGD_CHECK_OK(ot->PublishSnapshot().status());

  const int topk = 8;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> queries{0}, ok{0}, shed{0}, failed{0}, torn{0};
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> client_threads;
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      uint32_t state = 104729u * (c + 1);
      std::vector<double>& lat = latencies[c];
      // Pipelined async client: up to kInflight submits outstanding, so
      // a stalled shard sees real queue depth (a synchronous client
      // would block on its own future and never pressure the breaker).
      constexpr size_t kInflight = 8;
      std::deque<std::future<StatusOr<serve::TopKResponse>>> inflight;
      auto settle = [&](std::future<StatusOr<serve::TopKResponse>> f) {
        auto response = f.get();
        if (!response.ok()) {
          const StatusCode code = response.status().code();
          if (code == StatusCode::kUnavailable ||
              code == StatusCode::kDeadlineExceeded) {
            shed.fetch_add(1, std::memory_order_relaxed);
          } else {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (!ResponseIntact(*response, max_version.load(), topk)) {
          torn.fetch_add(1, std::memory_order_relaxed);
        } else {
          ok.fetch_add(1, std::memory_order_relaxed);
          lat.push_back(response->latency_s);
        }
      };
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t user =
            kUserBase + static_cast<int64_t>(
                            Lcg(&state) %
                            static_cast<uint32_t>(shape.warm_rows));
        queries.fetch_add(1, std::memory_order_relaxed);
        inflight.push_back(srv->Submit({user, /*raw=*/true, topk}));
        if (inflight.size() >= kInflight) {
          settle(std::move(inflight.front()));
          inflight.pop_front();
        }
        // Storms multiply the offered load by shrinking the think time.
        const double think_us = 300.0 / chaos->LoadMultiplier();
        std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
            think_us));
      }
      // Every outstanding future resolves — the server's drain
      // guarantee, exercised here on every run.
      while (!inflight.empty()) {
        settle(std::move(inflight.front()));
        inflight.pop_front();
      }
    });
  }

  Stopwatch train_wall;
  SyntheticStream arrivals(ArrivalSpec(shape, ctx.seed + 41));
  int64_t publish_rejections_seen = 0;
  for (int round = 1; round <= rounds; ++round) {
    chaos->BeginRound(round);
    HSGD_CHECK_OK(ot->Ingest(arrivals.NextBatch(shape.batch)).status());
    HSGD_CHECK_OK(ot->TrainDirty().status());
    max_version.store(ot->version() + 1);
    auto published = ot->PublishSnapshot();
    if (!published.ok()) {
      ++publish_rejections_seen;
      // Serving must continue on the last-known-good snapshot: a warm
      // user probed right after a rejected publish still gets an intact
      // answer (shedding under load is acceptable, corruption is not).
      auto probe = srv->Query({kUserBase, /*raw=*/true, topk});
      if (!probe.ok()) {
        const StatusCode code = probe.status().code();
        if (code != StatusCode::kUnavailable &&
            code != StatusCode::kDeadlineExceeded) {
          ++result.post_fault_probe_failures;
        }
      } else if (!ResponseIntact(*probe, max_version.load(), topk)) {
        ++result.post_fault_probe_failures;
      }
    }
    // Pace the round so fault windows span real serving time: a
    // slowshard window must outlast several stalled batches for the
    // breaker's miss window to fill, and tiny --scale runs would
    // otherwise sprint through the whole plan in milliseconds.
    std::this_thread::sleep_for(std::chrono::duration<double>(round_s));
  }
  result.train_wall_s = train_wall.Seconds();
  stop.store(true);
  for (auto& thread : client_threads) thread.join();
  srv->Shutdown();

  const serve::ServeCounters counters = srv->counters();
  result.queries = queries.load();
  result.ok = ok.load();
  result.shed = shed.load();
  result.failed = failed.load();
  result.torn = torn.load();
  result.publishes = ot->publishes();
  result.publish_rejected = counters.publish_rejected;
  result.poisons_fired = chaos->poisons_fired();
  result.wal_faults_fired = chaos->wal_faults_fired();
  result.wal_retries = ot->wal_retries();
  result.breaker_opens = counters.breaker_opens;
  result.breaker_rejected =
      counters.breaker_rejected + counters.predictive_rejected;
  HSGD_CHECK(publish_rejections_seen == ot->publish_rejected());

  std::vector<double> all_latencies;
  for (const auto& lat : latencies) {
    all_latencies.insert(all_latencies.end(), lat.begin(), lat.end());
  }
  if (!all_latencies.empty()) {
    std::sort(all_latencies.begin(), all_latencies.end());
    const size_t idx = std::min(
        all_latencies.size() - 1,
        static_cast<size_t>(0.99 * static_cast<double>(all_latencies.size())));
    result.p99_ok_latency_s = all_latencies[idx];
  }
  WipeDir(wal_dir);

  std::printf("chaos: %d rounds, %lld queries (%lld ok, %lld shed, %lld "
              "failed, %lld torn), %lld publishes + %lld rejected "
              "(%lld poisons), %lld WAL faults absorbed in %lld retries, "
              "%lld breaker opens, p99 ok %.2fms\n",
              rounds, static_cast<long long>(result.queries),
              static_cast<long long>(result.ok),
              static_cast<long long>(result.shed),
              static_cast<long long>(result.failed),
              static_cast<long long>(result.torn),
              static_cast<long long>(result.publishes),
              static_cast<long long>(result.publish_rejected),
              static_cast<long long>(result.poisons_fired),
              static_cast<long long>(result.wal_faults_fired),
              static_cast<long long>(result.wal_retries),
              static_cast<long long>(result.breaker_opens),
              result.p99_ok_latency_s * 1e3);
  return result;
}

}  // namespace
}  // namespace hsgd::bench

int main(int argc, char** argv) {
  using namespace hsgd;
  using namespace hsgd::bench;

  BenchContext ctx = ParseContext(
      argc, argv, /*default_epochs=*/30,
      {{"out", "<path>", "JSON report path (default BENCH_chaos.json)"},
       {"rounds", "<n>", "chaos publish rounds to drive (default 12)"},
       {"clients", "<n>", "query client threads (default 3)"},
       {"warm-epochs", "<n>",
        "full epochs before streaming starts (default 3)"},
       {"parity-rounds", "<n>", "WAL parity ingest rounds (default 6)"},
       {"pre-rounds", "<n>",
        "recovery rounds before the checkpoint (default 3)"},
       {"post-rounds", "<n>",
        "recovery rounds between checkpoint and crash (default 3)"},
       {"budget-ms", "<x>",
        "serve latency budget in milliseconds (default 2)"},
       {"round-ms", "<x>",
        "minimum wall time per chaos round in milliseconds (default 25; "
        "keeps fault windows wide enough to observe at any --scale)"},
       {"p99-mult", "<x>",
        "accept while served p99 <= budget * x (default 100 — the gate "
        "catches unbounded queueing collapse, not jitter)"},
       {"faults", "<plan>",
        "serve fault plan (default poison@r3;walio@r5n2;"
        "slowshard:0@r7x8for2;storm@r10x4for2)"}});
  const std::string out_path =
      ctx.flags.GetString("out", "BENCH_chaos.json");
  const int rounds = static_cast<int>(ctx.flags.GetInt("rounds", 12));
  const int clients = static_cast<int>(ctx.flags.GetInt("clients", 3));
  const int warm_epochs =
      static_cast<int>(ctx.flags.GetInt("warm-epochs", 3));
  const int parity_rounds =
      static_cast<int>(ctx.flags.GetInt("parity-rounds", 6));
  const int pre_rounds =
      static_cast<int>(ctx.flags.GetInt("pre-rounds", 3));
  const int post_rounds =
      static_cast<int>(ctx.flags.GetInt("post-rounds", 3));
  const double budget_s = ctx.flags.GetDouble("budget-ms", 2.0) / 1e3;
  const double round_s = ctx.flags.GetDouble("round-ms", 25.0) / 1e3;
  const double p99_mult = ctx.flags.GetDouble("p99-mult", 100.0);
  const std::string plan_text = ctx.flags.GetString(
      "faults",
      "poison@r3;walio@r5n2;slowshard:0@r7x8for2;storm@r10x4for2");
  HSGD_CHECK(rounds > 0 && clients > 0 && warm_epochs > 0 &&
             parity_rounds > 0 && pre_rounds > 0 && post_rounds > 0 &&
             budget_s > 0.0 && round_s >= 0.0 && p99_mult >= 1.0);

  auto plan = FaultPlan::Parse(plan_text);
  HSGD_CHECK_OK(plan.status()) << "while parsing --faults";
  int last_fault_round = 0;
  for (const FaultSpec& spec : plan->specs) {
    last_fault_round = std::max(last_fault_round, spec.epoch);
  }
  HSGD_CHECK(last_fault_round <= rounds)
      << "--faults references round " << last_fault_round
      << " but --rounds=" << rounds;

  // The chaos metrics land in the report even when no --metrics sink was
  // requested: the breaker/WAL counter families are the artifact CI
  // archives.
  std::shared_ptr<obs::MetricsRegistry> registry =
      ctx.obs.registry != nullptr ? ctx.obs.registry
                                  : std::make_shared<obs::MetricsRegistry>();

  obs::RunReport report("chaos_serving");
  report.config()
      .Set("rounds", obs::Json::Int(rounds))
      .Set("clients", obs::Json::Int(clients))
      .Set("warm_epochs", obs::Json::Int(warm_epochs))
      .Set("parity_rounds", obs::Json::Int(parity_rounds))
      .Set("pre_rounds", obs::Json::Int(pre_rounds))
      .Set("post_rounds", obs::Json::Int(post_rounds))
      .Set("budget_ms", obs::Json::Double(budget_s * 1e3))
      .Set("round_ms", obs::Json::Double(round_s * 1e3))
      .Set("p99_mult", obs::Json::Double(p99_mult))
      .Set("faults", obs::Json::Str(plan->ToString()))
      .Set("scale", obs::Json::Double(ctx.scale_mult))
      .Set("seed", obs::Json::Int(static_cast<int64_t>(ctx.seed)))
      .Set("kernel", obs::Json::Str(KernelKindName(ctx.kernel)));

  const ChaosShape shape = MakeShape(ctx);
  std::printf("chaos gate: %d x %d warm, batch %lld, plan %s\n",
              shape.warm_rows, shape.warm_cols,
              static_cast<long long>(shape.batch),
              plan->ToString().c_str());

  const ParityResult parity =
      RunParity(ctx, shape, warm_epochs, parity_rounds);
  const RecoveryResult recovery =
      RunRecovery(ctx, shape, warm_epochs, pre_rounds, post_rounds);
  const ChaosResult chaos = RunChaos(ctx, shape, registry.get(),
                                     warm_epochs, rounds, clients, *plan,
                                     budget_s, round_s);

  const bool parity_ok = parity.factors_identical &&
                         parity.wal_records == parity.rounds;
  const bool recovery_ok = recovery.factors_identical &&
                           recovery.truncated_bytes > 0 &&
                           recovery.unapplied > 0;
  const bool chaos_served_clean = chaos.failed == 0 && chaos.torn == 0 &&
                                  chaos.post_fault_probe_failures == 0 &&
                                  chaos.ok > 0;
  const bool chaos_rollback_ok =
      chaos.poisons_fired > 0 &&
      chaos.publish_rejected == chaos.poisons_fired &&
      chaos.publishes == chaos.rounds + 1 - chaos.poisons_fired;
  const bool chaos_wal_ok =
      chaos.wal_faults_fired > 0 && chaos.wal_retries >= chaos.wal_faults_fired;
  const bool chaos_breaker_ok = chaos.breaker_opens > 0;
  const bool chaos_latency_ok =
      chaos.p99_ok_latency_s <= budget_s * p99_mult;
  const bool accepted = parity_ok && recovery_ok && chaos_served_clean &&
                        chaos_rollback_ok && chaos_wal_ok &&
                        chaos_breaker_ok && chaos_latency_ok;

  report.results()
      .Push(obs::Json::Object()
                .Set("scenario", obs::Json::Str("parity"))
                .Set("rounds", obs::Json::Int(parity.rounds))
                .Set("wal_records", obs::Json::Int(parity.wal_records))
                .Set("factors_identical",
                     obs::Json::Bool(parity.factors_identical))
                .Set("gate_ok", obs::Json::Bool(parity_ok)))
      .Push(obs::Json::Object()
                .Set("scenario", obs::Json::Str("recovery"))
                .Set("checkpoint_seq",
                     obs::Json::Int(
                         static_cast<int64_t>(recovery.checkpoint_seq)))
                .Set("replayed_batches",
                     obs::Json::Int(recovery.replayed_batches))
                .Set("unapplied", obs::Json::Int(recovery.unapplied))
                .Set("truncated_bytes",
                     obs::Json::Int(recovery.truncated_bytes))
                .Set("factors_identical",
                     obs::Json::Bool(recovery.factors_identical))
                .Set("gate_ok", obs::Json::Bool(recovery_ok)))
      .Push(obs::Json::Object()
                .Set("scenario", obs::Json::Str("chaos"))
                .Set("rounds", obs::Json::Int(chaos.rounds))
                .Set("queries", obs::Json::Int(chaos.queries))
                .Set("ok", obs::Json::Int(chaos.ok))
                .Set("shed", obs::Json::Int(chaos.shed))
                .Set("failed", obs::Json::Int(chaos.failed))
                .Set("torn", obs::Json::Int(chaos.torn))
                .Set("publishes", obs::Json::Int(chaos.publishes))
                .Set("publish_rejected",
                     obs::Json::Int(chaos.publish_rejected))
                .Set("poisons_fired", obs::Json::Int(chaos.poisons_fired))
                .Set("wal_faults_fired",
                     obs::Json::Int(chaos.wal_faults_fired))
                .Set("wal_retries", obs::Json::Int(chaos.wal_retries))
                .Set("breaker_opens", obs::Json::Int(chaos.breaker_opens))
                .Set("breaker_rejected",
                     obs::Json::Int(chaos.breaker_rejected))
                .Set("post_fault_probe_failures",
                     obs::Json::Int(chaos.post_fault_probe_failures))
                .Set("p99_ok_latency_ms",
                     obs::Json::Double(chaos.p99_ok_latency_s * 1e3))
                .Set("train_wall_s", obs::Json::Double(chaos.train_wall_s))
                .Set("gate_ok",
                     obs::Json::Bool(chaos_served_clean &&
                                     chaos_rollback_ok && chaos_wal_ok &&
                                     chaos_breaker_ok && chaos_latency_ok)));
  report.config().Set("accepted", obs::Json::Bool(accepted));

  if (ctx.obs.registry == nullptr) {
    report.AttachMetrics(registry->Snapshot());
  }
  WriteObsArtifacts(ctx, &report);
  HSGD_CHECK_OK(report.WriteTo(out_path));
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!accepted) {
    std::fprintf(stderr,
                 "FAILED: chaos gate violated (parity=%d recovery=%d "
                 "served_clean=%d rollback=%d wal=%d breaker=%d "
                 "latency=%d)\n",
                 parity_ok, recovery_ok, chaos_served_clean,
                 chaos_rollback_ok, chaos_wal_ok, chaos_breaker_ok,
                 chaos_latency_ok);
    return 1;
  }
  return 0;
}
