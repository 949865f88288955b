// Fault-tolerance tests for the scripted fault subsystem: plan parsing,
// the zero-fault bit-identity guarantee (an attached-but-silent injector
// must not perturb a single bit of the run), crash recovery with lease
// revocation and deterministic replay, straggler degradation and the
// wedged-worker watchdog, link faults, checkpoint-retry accounting, and
// the all-dead failure path.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/hsgd.h"
#include "fault/fault_plan.h"
#include "fault/serve_injector.h"
#include "test_main.h"

namespace hsgd {
namespace {

Dataset SmallDataset(uint64_t seed = 5) {
  SyntheticSpec spec;
  spec.num_rows = 600;
  spec.num_cols = 500;
  spec.train_nnz = 40000;
  spec.test_nnz = 4000;
  spec.params.k = 16;
  spec.params.learning_rate = 0.01f;
  spec.noise_stddev = 0.3;
  auto ds = GenerateSynthetic(spec, seed);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TrainConfig SmallConfig(Algorithm algorithm) {
  TrainConfig cfg;
  cfg.algorithm = algorithm;
  cfg.hardware.num_cpu_threads = 4;
  cfg.hardware.num_gpus = 2;
  cfg.max_epochs = 4;
  cfg.use_dataset_target = false;
  cfg.eval_threads = 2;
  return cfg;
}

struct RunResult {
  Status status = Status::Ok();
  Trace trace;
  TrainStats stats;
  FaultStats fault;
  std::vector<float> p, q;
  int epochs_run = 0;
};

/// Run a full session; `plan_text == nullptr` means "never call
/// SetFaultPlan at all" (the subsystem-disabled baseline).
RunResult RunWithPlan(const Dataset& ds, const TrainConfig& cfg,
                      const char* plan_text) {
  RunResult result;
  auto session = Session::Create(ds, cfg);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) {
    result.status = session.status();
    return result;
  }
  if (plan_text != nullptr) {
    auto plan = FaultPlan::Parse(plan_text);
    EXPECT_TRUE(plan.ok());
    if (!plan.ok()) {
      result.status = plan.status();
      return result;
    }
    EXPECT_TRUE((*session)->SetFaultPlan(*plan).ok());
  }
  result.status = (*session)->RunToCompletion();
  result.trace = (*session)->trace();
  result.stats = (*session)->stats();
  result.fault = (*session)->fault_stats();
  result.p = (*session)->model().DenseP();
  result.q = (*session)->model().DenseQ();
  result.epochs_run = (*session)->epochs_run();
  return result;
}

void ExpectTracesEqual(const Trace& a, const Trace& b) {
  EXPECT_EQ(a.points.size(), b.points.size());
  if (a.points.size() != b.points.size()) return;
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].epoch, b.points[i].epoch);
    EXPECT_EQ(a.points[i].time, b.points[i].time);
    EXPECT_EQ(a.points[i].test_rmse, b.points[i].test_rmse);
    EXPECT_EQ(a.points[i].train_rmse, b.points[i].train_rmse);
  }
}

void ExpectRunsBitIdentical(const RunResult& a, const RunResult& b) {
  ExpectTracesEqual(a.trace, b.trace);
  EXPECT_TRUE(a.p == b.p);  // bitwise factor equality
  EXPECT_TRUE(a.q == b.q);
  EXPECT_EQ(a.stats.sim.seconds, b.stats.sim.seconds);
  EXPECT_EQ(a.stats.sim.block_tasks, b.stats.sim.block_tasks);
  EXPECT_EQ(a.stats.sim.stolen_by_gpus, b.stats.sim.stolen_by_gpus);
  EXPECT_EQ(a.stats.sim.stolen_by_cpus, b.stats.sim.stolen_by_cpus);
}

void ExpectFaultStatsZero(const FaultStats& stats) {
  EXPECT_EQ(stats.devices_lost, 0);
  EXPECT_EQ(stats.leases_revoked, 0);
  EXPECT_EQ(stats.blocks_requeued, 0);
  EXPECT_EQ(stats.blocks_lost, 0);
  EXPECT_EQ(stats.transfer_faults, 0);
  EXPECT_FALSE(stats.degraded);
}

void TestPlanParsing() {
  const std::string text =
      "crash:gpu0@e3+0.5; crash:cpu2@e2; slow:gpu1@e2+0.25x8for0.5; "
      "slow:cpu0@e1x16; link:gpu0@e2+0.1n4";
  auto plan = FaultPlan::Parse(text);
  EXPECT_TRUE(plan.ok());
  if (plan.ok()) {
    EXPECT_EQ(plan->specs.size(), 5u);
    const FaultSpec& crash = plan->specs[0];
    EXPECT_TRUE(crash.kind == FaultKind::kGpuCrash);
    EXPECT_EQ(crash.device_index, 0);
    EXPECT_EQ(crash.epoch, 3);
    EXPECT_EQ(crash.at_fraction, 0.5);
    const FaultSpec& slow = plan->specs[2];
    EXPECT_TRUE(slow.kind == FaultKind::kStraggler);
    EXPECT_EQ(slow.slowdown, 8.0);
    EXPECT_EQ(slow.duration, 0.5);
    const FaultSpec& link = plan->specs[4];
    EXPECT_TRUE(link.kind == FaultKind::kLinkFault);
    EXPECT_EQ(link.count, 4);

    // ToString -> Parse round-trips to the same plan.
    auto again = FaultPlan::Parse(plan->ToString());
    EXPECT_TRUE(again.ok());
    if (again.ok()) EXPECT_TRUE(again->ToString() == plan->ToString());
  }

  // The empty plan is valid (and must change nothing — see below).
  auto empty = FaultPlan::Parse("  ");
  EXPECT_TRUE(empty.ok());
  if (empty.ok()) EXPECT_TRUE(empty->empty());

  for (const char* bad : {
           "crash:tpu0@e1",       // unknown device class
           "crash:gpu0@e0",       // epochs are 1-based
           "crash:gpu0@e1+1.5",   // fraction outside [0, 1]
           "slow:gpu0@e1x0.5",    // slowdown must exceed 1
           "slow:gpu0@e1x4for0",  // degraded window must be positive
           "link:cpu0@e1n2",      // links hang off GPUs only
           "crash:gpu0@e1n2",     // count is link-only
           "link:gpu0@e1n0",      // counts start at 1
           "ckpt@e1n1",           // saves are the caller's: no ckpt kind
           "crash:gpu0@e1 trailing",
           "wibble",
           // Numbers are plain decimal, finite, and integers fit in an
           // int: what strtol/strtod would also take is refused, not read
           // as NaN, infinity, a wrapped integer or a hex value.
           "crash:cpu0@e1+nan",       // NaN fraction
           "slow:cpu0@e1xinf",        // infinite slowdown
           "slow:cpu0@e1x2for1e400",  // overflows to infinity
           "slow:cpu0@e1x2fornan",    // would print as permanent
           "crash:gpu4294967296@e1",  // would wrap to gpu0
           "crash:gpu0@e4294967297",  // would wrap to e1
           "link:gpu0@e1n4294967297", // would wrap to n1
           "crash:cpu 0@e1",          // space inside a clause
           "crash:cpu+0@e+1",         // signs
           "slow:cpu0@e1x0x10",       // hex: 0x10 is not 16
           "slow:cpu0@e1x.5e1",       // no digits before the point
           "slow:cpu0@e1x2.",         // no digits after it
       }) {
    auto parsed = FaultPlan::Parse(bad);
    EXPECT_TRUE(parsed.status().code() == StatusCode::kInvalidArgument);
    if (parsed.ok()) std::fprintf(stderr, "  (accepted: %s)\n", bad);
  }

  // `0x2` is the fraction 0 followed by a 2x slowdown, not hex 2.0.
  auto hex_like = FaultPlan::Parse("slow:cpu0@e1+0x2");
  EXPECT_TRUE(hex_like.ok());
  if (hex_like.ok()) {
    EXPECT_EQ(hex_like->specs[0].at_fraction, 0.0);
    EXPECT_EQ(hex_like->specs[0].slowdown, 2.0);
  }
  // The largest int still parses; exponents are decimal.
  auto edge = FaultPlan::Parse("link:gpu2147483647@e2147483647n2147483647;"
                               "slow:cpu0@e1+2.5e-1x1.5e1for1e-3");
  EXPECT_TRUE(edge.ok());
  if (edge.ok()) {
    EXPECT_EQ(edge->specs[0].device_index, 2147483647);
    EXPECT_EQ(edge->specs[0].epoch, 2147483647);
    EXPECT_EQ(edge->specs[0].count, 2147483647);
    EXPECT_EQ(edge->specs[1].at_fraction, 0.25);
    EXPECT_EQ(edge->specs[1].slowdown, 15.0);
    EXPECT_EQ(edge->specs[1].duration, 1e-3);
  }
}

// Inside the ranges the header documents, for every field of `spec`.
bool SpecInRange(const FaultSpec& spec) {
  return spec.device_index >= 0 && spec.epoch >= 1 &&
         std::isfinite(spec.at_fraction) && spec.at_fraction >= 0.0 &&
         spec.at_fraction <= 1.0 && std::isfinite(spec.slowdown) &&
         spec.slowdown > 1.0 && std::isfinite(spec.duration) &&
         spec.duration >= 0.0 && spec.count >= 1;
}

bool SameSpec(const FaultSpec& a, const FaultSpec& b) {
  return a.kind == b.kind && a.device_class == b.device_class &&
         a.device_index == b.device_index && a.epoch == b.epoch &&
         a.at_fraction == b.at_fraction && a.slowdown == b.slowdown &&
         a.duration == b.duration && a.count == b.count;
}

// Seeded mutants of the header's example clauses: each one is refused,
// or parses to specs inside the documented ranges whose ToString parses
// back to the same specs and prints the same text again.
void TestPlanParseMutants() {
  const std::vector<std::string> examples = {
      "crash:gpu0@e3+0.5", "crash:cpu2@e2",
      "slow:gpu1@e2+0.25x8for0.5", "slow:cpu0@e1x16",
      "link:gpu0@e2+0.1n4",
      "poison@r3n2", "walio@r2n4",
      "storm@r4x8for2", "slowshard:1@r5x16for3"};
  auto pick = [](Rng* rng, size_t n) {
    return static_cast<size_t>(rng->UniformInt(static_cast<int64_t>(n)));
  };
  // Single characters of the grammar, and tokens that strtol/strtod
  // would read as numbers.
  const std::string chars = "0123456789.+-exnfor@:; ";
  const std::vector<std::string> tokens = {
      "nan", "inf", "0x1", "4294967296", "2147483648", "1e400", "1e-400",
      "1.0000001", "0.9999999", " ", "-", "+", "e+", "9e9"};
  Rng rng(26);
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string text = examples[pick(&rng, examples.size())];
    const int edits = 1 + static_cast<int>(rng.UniformInt(3));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = pick(&rng, text.size() + 1);
      const char c = chars[pick(&rng, chars.size())];
      switch (rng.UniformInt(4)) {
        case 0:
          if (pos < text.size()) text[pos] = c;
          break;
        case 1:
          text.insert(pos, 1, c);
          break;
        case 2:
          if (pos < text.size()) text.erase(pos, 1);
          break;
        default:
          text.insert(pos, tokens[pick(&rng, tokens.size())]);
          break;
      }
    }
    auto plan = FaultPlan::Parse(text);
    if (!plan.ok()) {
      ++refused;
      continue;
    }
    ++accepted;
    bool ok = true;
    for (const FaultSpec& spec : plan->specs) ok = ok && SpecInRange(spec);
    const std::string once = plan->ToString();
    auto again = FaultPlan::Parse(once);
    ok = ok && again.ok() && again->ToString() == once &&
         again->specs.size() == plan->specs.size();
    for (size_t s = 0; ok && s < plan->specs.size(); ++s) {
      ok = SameSpec(plan->specs[s], again->specs[s]);
    }
    EXPECT_TRUE(ok);
    if (!ok) {
      std::fprintf(stderr, "  (mutant \"%s\" printed as \"%s\")\n",
                   text.c_str(), once.c_str());
    }
  }
  // Both outcomes are exercised.
  EXPECT_LT(1000, accepted);
  EXPECT_LT(1000, refused);
}

// The heart of the double-apply-safety story: attaching the fault
// subsystem without any firing fault must reproduce the disabled run
// bit for bit — traces, factors, stats, everything. The pool that runs
// the epoch's SGD blocks must not leak in either: every eval_threads
// count gives the same run.
void TestZeroFaultBitIdentity() {
  Dataset ds = SmallDataset();
  for (Algorithm algorithm : {Algorithm::kCpuOnly, Algorithm::kGpuOnly,
                              Algorithm::kHsgd, Algorithm::kHsgdStar}) {
    TrainConfig cfg = SmallConfig(algorithm);
    RunResult disabled = RunWithPlan(ds, cfg, nullptr);
    RunResult empty = RunWithPlan(ds, cfg, "");
    // A plan may only name devices of the session's fleet.
    RunResult silent = RunWithPlan(
        ds, cfg,
        algorithm == Algorithm::kCpuOnly ? "crash:cpu0@e99" : "crash:gpu0@e99");
    EXPECT_TRUE(disabled.status.ok());
    EXPECT_TRUE(empty.status.ok());
    EXPECT_TRUE(silent.status.ok());
    ExpectRunsBitIdentical(disabled, empty);
    ExpectRunsBitIdentical(disabled, silent);
    ExpectFaultStatsZero(empty.fault);
    ExpectFaultStatsZero(silent.fault);
    for (int eval_threads : {1, 7}) {
      TrainConfig alt = cfg;
      alt.eval_threads = eval_threads;
      RunResult other = RunWithPlan(ds, alt, nullptr);
      EXPECT_TRUE(other.status.ok());
      ExpectRunsBitIdentical(disabled, other);
    }
  }
}

// Killing a GPU halfway through an epoch: its leases are revoked, its
// stripes are redistributed, training runs to the full epoch budget, and
// the damaged run is deterministic (exact replay) and close in final
// RMSE to the fault-free run.
void TestGpuCrashRecovery() {
  Dataset ds = SmallDataset();
  TrainConfig cfg = SmallConfig(Algorithm::kHsgdStar);
  const char* plan = "crash:gpu1@e2+0.5";

  RunResult clean = RunWithPlan(ds, cfg, nullptr);
  RunResult crashed = RunWithPlan(ds, cfg, plan);
  EXPECT_TRUE(clean.status.ok());
  EXPECT_TRUE(crashed.status.ok());
  EXPECT_EQ(crashed.epochs_run, cfg.max_epochs);
  EXPECT_EQ(crashed.fault.devices_lost, 1);
  EXPECT_TRUE(crashed.fault.degraded);
  EXPECT_TRUE(crashed.fault.leases_revoked >= 1);
  EXPECT_EQ(crashed.fault.blocks_requeued + crashed.fault.blocks_lost,
            crashed.fault.leases_revoked);
  EXPECT_EQ(crashed.fault.blocks_lost, 0);  // one requeue always suffices

  // Every block still applies exactly once per epoch, so the damaged
  // model converges: final RMSE within 2% of the fault-free run.
  const double clean_rmse = clean.trace.points.back().test_rmse;
  const double crashed_rmse = crashed.trace.points.back().test_rmse;
  EXPECT_TRUE(std::fabs(crashed_rmse / clean_rmse - 1.0) <= 0.02);

  // Deterministic replay: the same seed + plan reproduces the damaged
  // run exactly, and the evaluation thread count cannot leak in.
  RunResult replay = RunWithPlan(ds, cfg, plan);
  EXPECT_TRUE(replay.status.ok());
  ExpectRunsBitIdentical(crashed, replay);
  for (int eval_threads : {1, 7}) {
    TrainConfig alt = cfg;
    alt.eval_threads = eval_threads;
    RunResult other = RunWithPlan(ds, alt, plan);
    EXPECT_TRUE(other.status.ok());
    ExpectRunsBitIdentical(crashed, other);
  }
}

// A CPU crash on the plain HSGD (pool) scheduler: survivors drain the
// queue, the epoch completes, the run stays deterministic.
void TestCpuCrashRecovery() {
  Dataset ds = SmallDataset();
  TrainConfig cfg = SmallConfig(Algorithm::kHsgd);
  const char* plan = "crash:cpu3@e1+0.25";
  RunResult crashed = RunWithPlan(ds, cfg, plan);
  EXPECT_TRUE(crashed.status.ok());
  EXPECT_EQ(crashed.epochs_run, cfg.max_epochs);
  EXPECT_EQ(crashed.fault.devices_lost, 1);
  RunResult replay = RunWithPlan(ds, cfg, plan);
  EXPECT_TRUE(replay.status.ok());
  ExpectRunsBitIdentical(crashed, replay);
}

// A transient straggler (slowdown below the deadline factor) keeps its
// work but stretches the simulated clock; nobody dies.
void TestTransientStraggler() {
  Dataset ds = SmallDataset();
  TrainConfig cfg = SmallConfig(Algorithm::kHsgd);
  RunResult clean = RunWithPlan(ds, cfg, nullptr);
  RunResult slow = RunWithPlan(ds, cfg, "slow:cpu1@e1+0.1x4for5.0");
  EXPECT_TRUE(clean.status.ok());
  EXPECT_TRUE(slow.status.ok());
  EXPECT_EQ(slow.fault.devices_lost, 0);
  EXPECT_TRUE(slow.fault.degraded);
  EXPECT_TRUE(slow.stats.sim.seconds > clean.stats.sim.seconds);
  EXPECT_EQ(slow.epochs_run, cfg.max_epochs);
}

// A permanently wedged worker (slowdown >= the 8x lease deadline factor)
// is benched at its next acquire and declared dead by the watchdog rather
// than dragging every one of its leases past the deadline.
void TestWedgedWorkerIsRetired() {
  Dataset ds = SmallDataset();
  TrainConfig cfg = SmallConfig(Algorithm::kHsgd);
  RunResult wedged = RunWithPlan(ds, cfg, "slow:cpu1@e2x16");
  EXPECT_TRUE(wedged.status.ok());
  EXPECT_EQ(wedged.fault.devices_lost, 1);
  EXPECT_EQ(wedged.epochs_run, cfg.max_epochs);
}

// Injected PCIe faults: each failed transfer retries with a detection
// penalty, so the run completes with a strictly later clock.
void TestLinkFaults() {
  Dataset ds = SmallDataset();
  TrainConfig cfg = SmallConfig(Algorithm::kHsgdStar);
  RunResult clean = RunWithPlan(ds, cfg, nullptr);
  RunResult flaky = RunWithPlan(ds, cfg, "link:gpu0@e1n3");
  EXPECT_TRUE(clean.status.ok());
  EXPECT_TRUE(flaky.status.ok());
  EXPECT_EQ(flaky.fault.transfer_faults, 3);
  EXPECT_EQ(flaky.fault.devices_lost, 0);
  // The retries push one block past its deadline: the watchdog revokes
  // that lease and requeues the block.
  EXPECT_EQ(flaky.fault.leases_revoked, 1);
  EXPECT_EQ(flaky.fault.blocks_requeued, 1);
  EXPECT_TRUE(flaky.stats.sim.seconds > clean.stats.sim.seconds);
  RunResult replay = RunWithPlan(ds, cfg, "link:gpu0@e1n3");
  EXPECT_TRUE(replay.status.ok());
  ExpectRunsBitIdentical(flaky, replay);
}

// A flaky link that outlasts the requeue: blocks whose lease expires a
// second time are dropped for the epoch instead of requeued forever,
// no device dies, and the run still finishes the same way at every
// eval_threads count.
void TestRepeatedExpiryDropsBlock() {
  Dataset ds = SmallDataset();
  const char* plan = "link:gpu0@e1+0.2n40";
  std::vector<RunResult> runs;
  for (int eval_threads : {1, 7}) {
    TrainConfig cfg = SmallConfig(Algorithm::kHsgdStar);
    cfg.eval_threads = eval_threads;
    runs.push_back(RunWithPlan(ds, cfg, plan));
    const RunResult& run = runs.back();
    EXPECT_TRUE(run.status.ok());
    EXPECT_EQ(run.epochs_run, cfg.max_epochs);
    EXPECT_EQ(run.fault.devices_lost, 0);
    EXPECT_TRUE(run.fault.blocks_lost > 0);
    EXPECT_EQ(run.fault.blocks_requeued + run.fault.blocks_lost,
              run.fault.leases_revoked);
  }
  ExpectRunsBitIdentical(runs[0], runs[1]);
}

// GPU-Only has one block. When its lease expires twice the epoch still
// succeeds but sweeps no rating, so it reports no training loss (NaN)
// and its test RMSE is the previous epoch's, the factors unchanged.
void TestEpochWithoutSweepHasNoTrainLoss() {
  Dataset ds = SmallDataset();
  TrainConfig cfg = SmallConfig(Algorithm::kGpuOnly);
  cfg.hardware.num_gpus = 1;
  auto session = Session::Create(ds, cfg);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  auto plan = FaultPlan::Parse("link:gpu0@e1n8");
  EXPECT_TRUE(plan.ok());
  EXPECT_TRUE((*session)->SetFaultPlan(*plan).ok());
  auto first = (*session)->RunEpoch();
  auto dropped = (*session)->RunEpoch();
  EXPECT_TRUE(first.ok() && dropped.ok());
  if (!first.ok() || !dropped.ok()) return;
  EXPECT_TRUE(std::isfinite(first->train_rmse));
  EXPECT_EQ((*session)->fault_stats().blocks_lost, 1);
  EXPECT_TRUE(std::isnan(dropped->train_rmse));
  EXPECT_EQ(dropped->test_rmse, first->test_rmse);
}

// Losing every worker fails the session permanently. The blocks
// committed before the last worker died still reach the model, the same
// way at every eval_threads count.
void TestAllWorkersDead() {
  Dataset ds = SmallDataset();
  std::vector<std::vector<float>> failed_p, failed_q;
  for (int eval_threads : {1, 7}) {
    TrainConfig cfg = SmallConfig(Algorithm::kCpuOnly);
    cfg.hardware.num_cpu_threads = 2;
    cfg.eval_threads = eval_threads;
    auto session = Session::Create(ds, cfg);
    EXPECT_TRUE(session.ok());
    if (!session.ok()) return;
    const std::vector<float> init_p = (*session)->model().DenseP();
    const std::vector<float> init_q = (*session)->model().DenseQ();
    auto plan = FaultPlan::Parse("crash:cpu0@e1; crash:cpu1@e1+0.2");
    EXPECT_TRUE(plan.ok());
    EXPECT_TRUE((*session)->SetFaultPlan(*plan).ok());
    auto point = (*session)->RunEpoch();
    EXPECT_FALSE(point.ok());
    EXPECT_TRUE((*session)->failed());
    EXPECT_TRUE((*session)->Done());
    if (!point.ok()) {
      EXPECT_TRUE(point.status().message().find("dead") != std::string::npos);
    }
    failed_p.push_back((*session)->model().DenseP());
    failed_q.push_back((*session)->model().DenseQ());
    EXPECT_FALSE(failed_p.back() == init_p);
    EXPECT_FALSE(failed_q.back() == init_q);
    auto again = (*session)->RunEpoch();
    EXPECT_FALSE(again.ok());
    if (!again.ok()) {
      EXPECT_TRUE(again.status().code() == StatusCode::kFailedPrecondition);
    }
  }
  EXPECT_TRUE(failed_p[0] == failed_p[1]);  // bitwise factor equality
  EXPECT_TRUE(failed_q[0] == failed_q[1]);
}

// RunIncrementalEpoch runs its side task exactly once on every way out:
// nothing pending, a successful epoch (whose bits it leaves alone), an
// abort mid-epoch, the failed session after it, every worker dead at the
// epoch's start, and the epoch budget spent with ratings pending.
void TestIncrementalSideTaskRunsOnEveryExit() {
  Dataset ds = SmallDataset();
  const Ratings appended(ds.train.begin(), ds.train.begin() + 500);
  for (int eval_threads : {1, 7}) {
    TrainConfig cfg = SmallConfig(Algorithm::kCpuOnly);
    cfg.hardware.num_cpu_threads = 2;
    cfg.eval_threads = eval_threads;
    auto session = Session::Create(ds, cfg);
    auto twin = Session::Create(ds, cfg);
    EXPECT_TRUE(session.ok() && twin.ok());
    if (!session.ok() || !twin.ok()) return;
    Session* s = session->get();
    int runs = 0;
    auto count = [&runs] { ++runs; };
    EXPECT_TRUE(s->RunIncrementalEpoch(count).status().code() ==
                StatusCode::kFailedPrecondition);
    EXPECT_EQ(runs, 1);

    EXPECT_TRUE(s->AppendRatings(appended).ok());
    EXPECT_TRUE((*twin)->AppendRatings(appended).ok());
    auto counted = s->RunIncrementalEpoch(count);
    auto plain = (*twin)->RunIncrementalEpoch();
    EXPECT_EQ(runs, 2);
    EXPECT_TRUE(counted.ok() && plain.ok());
    if (counted.ok() && plain.ok()) {
      EXPECT_EQ(counted->test_rmse, plain->test_rmse);
      EXPECT_EQ(counted->train_rmse, plain->train_rmse);
    }
    EXPECT_TRUE(s->model().DenseP() == (*twin)->model().DenseP());
    EXPECT_TRUE(s->model().DenseQ() == (*twin)->model().DenseQ());

    auto plan = FaultPlan::Parse("crash:cpu0@e2; crash:cpu1@e2+0.2");
    EXPECT_TRUE(plan.ok());
    EXPECT_TRUE(s->SetFaultPlan(*plan).ok());
    EXPECT_TRUE(s->AppendRatings(appended).ok());
    auto aborted = s->RunIncrementalEpoch(count);
    EXPECT_TRUE(aborted.status().code() == StatusCode::kInternal);
    EXPECT_TRUE(s->failed());
    EXPECT_EQ(runs, 3);
    EXPECT_TRUE(s->RunIncrementalEpoch(count).status().code() ==
                StatusCode::kFailedPrecondition);
    EXPECT_EQ(runs, 4);
  }

  TrainConfig cfg = SmallConfig(Algorithm::kCpuOnly);
  cfg.hardware.num_cpu_threads = 2;
  auto dead = Session::Create(ds, cfg);
  EXPECT_TRUE(dead.ok());
  if (!dead.ok()) return;
  auto plan = FaultPlan::Parse("crash:cpu0@e2; crash:cpu1@e2");
  EXPECT_TRUE(plan.ok());
  EXPECT_TRUE((*dead)->SetFaultPlan(*plan).ok());
  EXPECT_TRUE((*dead)->RunEpoch().ok());
  EXPECT_TRUE((*dead)->AppendRatings(appended).ok());
  int runs = 0;
  EXPECT_TRUE((*dead)->RunIncrementalEpoch([&runs] { ++runs; })
                  .status()
                  .code() == StatusCode::kInternal);
  EXPECT_EQ(runs, 1);

  cfg.max_epochs = 1;
  auto spent = Session::Create(ds, cfg);
  EXPECT_TRUE(spent.ok());
  if (!spent.ok()) return;
  EXPECT_TRUE((*spent)->RunEpoch().ok());
  EXPECT_TRUE((*spent)->AppendRatings(appended).ok());
  runs = 0;
  EXPECT_TRUE((*spent)->RunIncrementalEpoch([&runs] { ++runs; })
                  .status()
                  .code() == StatusCode::kFailedPrecondition);
  EXPECT_EQ((*spent)->pending_nnz(), 500);
  EXPECT_EQ(runs, 1);
}

// The serve half of the grammar: poison / walio / storm / slowshard
// clauses parse with round-triggered semantics and round-trip through
// ToString, and the misuse cases fail loudly.
void TestServePlanParsing() {
  const std::string text =
      "poison@r3n2; walio@r2n4; storm@r4x8for2; slowshard:1@r5x16for3";
  auto plan = FaultPlan::Parse(text);
  EXPECT_TRUE(plan.ok());
  if (plan.ok()) {
    EXPECT_EQ(plan->specs.size(), 4u);
    const FaultSpec& poison = plan->specs[0];
    EXPECT_TRUE(poison.kind == FaultKind::kPublishPoison);
    EXPECT_EQ(poison.epoch, 3);  // round rides the epoch field
    EXPECT_EQ(poison.count, 2);
    const FaultSpec& walio = plan->specs[1];
    EXPECT_TRUE(walio.kind == FaultKind::kWalIo);
    EXPECT_EQ(walio.epoch, 2);
    EXPECT_EQ(walio.count, 4);
    const FaultSpec& storm = plan->specs[2];
    EXPECT_TRUE(storm.kind == FaultKind::kQueryStorm);
    EXPECT_EQ(storm.slowdown, 8.0);
    EXPECT_EQ(storm.duration, 2.0);
    const FaultSpec& slow_shard = plan->specs[3];
    EXPECT_TRUE(slow_shard.kind == FaultKind::kSlowShard);
    EXPECT_EQ(slow_shard.device_index, 1);  // shard rides device_index
    EXPECT_EQ(slow_shard.slowdown, 16.0);
    EXPECT_EQ(slow_shard.duration, 3.0);

    for (const FaultSpec& spec : plan->specs) {
      EXPECT_TRUE(IsServeFault(spec.kind));
    }
    EXPECT_FALSE(IsServeFault(FaultKind::kGpuCrash));

    auto again = FaultPlan::Parse(plan->ToString());
    EXPECT_TRUE(again.ok());
    if (again.ok()) EXPECT_TRUE(again->ToString() == plan->ToString());
  }

  for (const char* bad : {
           "poison@r0",            // rounds are 1-based
           "poison@e3",            // serve kinds trigger on @r, not @e
           "crash:gpu0@r1",        // ...and train kinds on @e, not @r
           "poison:gpu0@r1",       // poison/walio/storm take no target
           "walio@r1x4",           // no slowdown on count kinds
           "storm@r1n2",           // no count on window kinds
           "storm@r1x0.5for2",     // factor must exceed 1
           "slowshard@r1x4for2",   // slowshard requires a shard index
           "slowshard:0@r1+0.5x4", // no release fraction on rounds
       }) {
    auto parsed = FaultPlan::Parse(bad);
    EXPECT_FALSE(parsed.ok());
    if (parsed.ok()) std::fprintf(stderr, "  (accepted: %s)\n", bad);
  }
}

// The session refuses serve kinds — they are fired by the injector,
// never the training loop — and takes a plan of session kinds.
void TestSessionRejectsServeKinds() {
  auto mixed = FaultPlan::Parse(
      "crash:gpu0@e2+0.5; poison@r3; link:gpu0@e1n1; walio@r2n2; "
      "slowshard:0@r4x8for1");
  auto train = FaultPlan::Parse("crash:gpu0@e2+0.5; link:gpu0@e1n1");
  EXPECT_TRUE(mixed.ok());
  EXPECT_TRUE(train.ok());
  if (!mixed.ok() || !train.ok()) return;

  Dataset ds = SmallDataset();
  auto session = Session::Create(ds, SmallConfig(Algorithm::kHsgd));
  EXPECT_TRUE(session.ok());
  if (session.ok()) {
    Status status = (*session)->SetFaultPlan(*mixed);
    EXPECT_FALSE(status.ok());
    EXPECT_TRUE(status.message().find("serve") != std::string::npos);
    EXPECT_TRUE((*session)->SetFaultPlan(*train).ok());
  }
}

// ServeFaultInjector: Create validation, and the four firing surfaces
// driven round by round — the engine under bench_chaos_serving's gate.
void TestServeFaultInjectorFiring() {
  auto plan = FaultPlan::Parse(
      "poison@r3n2; walio@r2n2; storm@r4x8for2; slowshard:1@r5x16for3");
  EXPECT_TRUE(plan.ok());
  if (!plan.ok()) return;

  // Creation validates kind purity and shard range.
  auto train_kind = FaultPlan::Parse("crash:gpu0@e1");
  EXPECT_TRUE(train_kind.ok());
  EXPECT_FALSE(ServeFaultInjector::Create(*train_kind, 2).ok());
  EXPECT_FALSE(ServeFaultInjector::Create(*plan, 1).ok());  // shard 1 of 1
  auto injector = ServeFaultInjector::Create(*plan, 2);
  EXPECT_TRUE(injector.ok());
  if (!injector.ok()) return;
  ServeFaultInjector& chaos = **injector;

  // Round 1: nothing armed.
  chaos.BeginRound(1);
  EXPECT_FALSE(chaos.PoisonThisPublish());
  EXPECT_FALSE(chaos.ConsumeWalFault());
  EXPECT_EQ(chaos.LoadMultiplier(), 1.0);
  EXPECT_EQ(chaos.ShardSlowdown(0), 1.0);
  EXPECT_EQ(chaos.ShardSlowdown(1), 1.0);

  // Round 2: the two scripted WAL faults fire, then the budget is spent.
  chaos.BeginRound(2);
  EXPECT_TRUE(chaos.ConsumeWalFault());
  EXPECT_TRUE(chaos.ConsumeWalFault());
  EXPECT_FALSE(chaos.ConsumeWalFault());
  EXPECT_FALSE(chaos.PoisonThisPublish());

  // Rounds 3-4: two consecutive poisoned publishes, exactly.
  chaos.BeginRound(3);
  EXPECT_TRUE(chaos.PoisonThisPublish());
  chaos.BeginRound(4);
  EXPECT_TRUE(chaos.PoisonThisPublish());
  EXPECT_FALSE(chaos.PoisonThisPublish());
  // Round 4 also opens the storm window (rounds 4..5).
  EXPECT_EQ(chaos.LoadMultiplier(), 8.0);

  // Round 5: storm still active; shard 1 (and only shard 1) stalls.
  chaos.BeginRound(5);
  EXPECT_EQ(chaos.LoadMultiplier(), 8.0);
  EXPECT_EQ(chaos.ShardSlowdown(0), 1.0);
  EXPECT_EQ(chaos.ShardSlowdown(1), 16.0);

  // Round 6: storm over (4..5); slowshard window (5..7) persists.
  chaos.BeginRound(6);
  EXPECT_EQ(chaos.LoadMultiplier(), 1.0);
  EXPECT_EQ(chaos.ShardSlowdown(1), 16.0);

  // Round 8: everything back to healthy; totals match the script.
  chaos.BeginRound(8);
  EXPECT_EQ(chaos.ShardSlowdown(1), 1.0);
  EXPECT_EQ(chaos.poisons_fired(), 2);
  EXPECT_EQ(chaos.wal_faults_fired(), 2);
}

// SetFaultPlan validates targets against the actual fleet.
void TestPlanValidation() {
  Dataset ds = SmallDataset();
  auto session = Session::Create(ds, SmallConfig(Algorithm::kHsgd));
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  auto out_of_range = FaultPlan::Parse("crash:gpu5@e1");
  EXPECT_TRUE(out_of_range.ok());
  auto status = (*session)->SetFaultPlan(*out_of_range);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.message().find("gpu5") != std::string::npos);

  auto gpu_only = Session::Create(ds, SmallConfig(Algorithm::kGpuOnly));
  EXPECT_TRUE(gpu_only.ok());
  if (gpu_only.ok()) {
    auto cpu_fault = FaultPlan::Parse("crash:cpu0@e1");
    EXPECT_TRUE(cpu_fault.ok());
    EXPECT_FALSE((*gpu_only)->SetFaultPlan(*cpu_fault).ok());
  }
}

}  // namespace

void RunAllTests() {
  TestPlanParsing();
  TestPlanParseMutants();
  TestZeroFaultBitIdentity();
  TestGpuCrashRecovery();
  TestCpuCrashRecovery();
  TestTransientStraggler();
  TestWedgedWorkerIsRetired();
  TestLinkFaults();
  TestRepeatedExpiryDropsBlock();
  TestEpochWithoutSweepHasNoTrainLoss();
  TestAllWorkersDead();
  TestIncrementalSideTaskRunsOnEveryExit();
  TestServePlanParsing();
  TestSessionRejectsServeKinds();
  TestServeFaultInjectorFiring();
  TestPlanValidation();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
