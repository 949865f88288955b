// One-shot training through Session::Create + RunToCompletion: every
// algorithm trains and learns, runs are deterministic per seed, the RMSE
// target stops training early, HSGD* splits work between the devices and
// its dynamic phase pays off, and invalid configs fail instead of
// training.

#include <cmath>
#include <cstdio>
#include <string>

#include "core/hsgd.h"
#include "test_main.h"
#include "train_fixture.h"

namespace hsgd {
namespace {

using testing::ExpectStatsEqual;
using testing::ExpectTracePointsEqual;
using testing::SmallConfig;
using testing::SmallDataset;
using testing::Train;

void TestAllAlgorithmsRun() {
  Dataset ds = SmallDataset();
  for (Algorithm algorithm :
       {Algorithm::kCpuOnly, Algorithm::kGpuOnly, Algorithm::kHsgd,
        Algorithm::kHsgdStar}) {
    auto result = Train(ds, SmallConfig(algorithm));
    EXPECT_TRUE(result.ok());
    if (!result.ok()) continue;
    EXPECT_EQ(result->trace.points.size(), 5u);
    EXPECT_LT(0.0, result->stats.sim.seconds);
    EXPECT_LT(0, result->stats.sim.block_tasks);
    // Learning happened: RMSE dropped versus the first epoch.
    EXPECT_LT(result->trace.points.back().test_rmse,
              result->trace.points.front().test_rmse * 0.95);
    // Epoch times are strictly increasing.
    for (size_t i = 1; i < result->trace.points.size(); ++i) {
      EXPECT_LT(result->trace.points[i - 1].time,
                result->trace.points[i].time);
    }
  }
}

void TestDeterminism() {
  Dataset ds = SmallDataset();
  TrainConfig cfg = SmallConfig(Algorithm::kHsgdStar);
  auto a = Train(ds, cfg);
  auto b = Train(ds, cfg);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  if (!a.ok() || !b.ok()) return;
  EXPECT_EQ(a->trace.points.size(), b->trace.points.size());
  for (size_t i = 0; i < a->trace.points.size(); ++i) {
    // Bit-exact: same seed, same virtual schedule, same arithmetic.
    ExpectTracePointsEqual(a->trace.points[i], b->trace.points[i]);
  }
  ExpectStatsEqual(a->stats, b->stats);

  TrainConfig other = cfg;
  other.seed = cfg.seed + 1;
  auto c = Train(ds, other);
  EXPECT_TRUE(c.ok());
  // A different seed draws different device speeds and shuffles: the
  // virtual clock will not match bit-for-bit.
  if (c.ok()) EXPECT_TRUE(c->stats.sim.seconds != a->stats.sim.seconds);
}

void TestTargetStopsEarly() {
  Dataset ds = SmallDataset();
  ds.target_rmse = 100.0;  // trivially reachable after one epoch
  TrainConfig cfg = SmallConfig(Algorithm::kCpuOnly);
  cfg.use_dataset_target = true;
  auto result = Train(ds, cfg);
  EXPECT_TRUE(result.ok());
  if (!result.ok()) return;
  EXPECT_TRUE(result->stats.sim.reached_target);
  EXPECT_EQ(result->trace.points.size(), 1u);
  EXPECT_EQ(result->trace.TimeToReach(100.0),
            result->trace.points[0].time);

  ds.target_rmse = 1e-9;  // unreachable
  auto never = Train(ds, cfg);
  EXPECT_TRUE(never.ok());
  if (!never.ok()) return;
  EXPECT_FALSE(never->stats.sim.reached_target);
  EXPECT_TRUE(never->trace.TimeToReach(1e-9) >= kSimTimeNever);
}

void TestStarAlphaAndStats() {
  Dataset ds = SmallDataset();
  auto result = Train(ds, SmallConfig(Algorithm::kHsgdStar));
  auto cpu_only = Train(ds, SmallConfig(Algorithm::kCpuOnly));
  auto gpu_only = Train(ds, SmallConfig(Algorithm::kGpuOnly));
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(cpu_only.ok());
  EXPECT_TRUE(gpu_only.ok());
  if (!result.ok() || !cpu_only.ok() || !gpu_only.ok()) return;
  EXPECT_TRUE(result->stats.sim.alpha > 0.0 && result->stats.sim.alpha < 1.0);
  EXPECT_TRUE(result->stats.sim.update_rate_cv >= 0.0);
  EXPECT_NEAR(cpu_only->stats.sim.alpha, 0.0, 1e-12);
  EXPECT_NEAR(gpu_only->stats.sim.alpha, 1.0, 1e-12);
}

void TestDynamicNoSlowerThanStatic() {
  Dataset ds = SmallDataset();
  // Averaged over a batch of variability draws, the dynamic phase must
  // help: stealing only happens where the static plan left a device
  // idle. (Individual draws can be neutral — balanced plans steal
  // nothing — so this is a mean-behavior property.)
  double static_total = 0.0, dynamic_total = 0.0;
  int64_t stolen = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (bool dynamic : {false, true}) {
      TrainConfig cfg = SmallConfig(Algorithm::kHsgdStar);
      // Exaggerated device variability guarantees the static plan is
      // badly wrong on some draws — exactly when stealing must kick in.
      cfg.hardware.speed_variability = 0.5;
      cfg.dynamic_scheduling = dynamic;
      cfg.seed = seed;
      auto result = Train(ds, cfg);
      EXPECT_TRUE(result.ok());
      if (!result.ok()) continue;
      (dynamic ? dynamic_total : static_total) +=
          result->stats.sim.seconds;
      if (dynamic) {
        stolen +=
            result->stats.sim.stolen_by_gpus + result->stats.sim.stolen_by_cpus;
      } else {
        EXPECT_EQ(result->stats.sim.stolen_by_gpus, 0);
        EXPECT_EQ(result->stats.sim.stolen_by_cpus, 0);
      }
    }
  }
  EXPECT_LT(dynamic_total, static_total * 1.001);
  EXPECT_LT(0, stolen);
}

void TestInvalidConfigs() {
  Dataset ds = SmallDataset();
  TrainConfig cfg = SmallConfig(Algorithm::kCpuOnly);
  cfg.hardware.num_cpu_threads = 0;
  EXPECT_FALSE(Train(ds, cfg).ok());
  cfg = SmallConfig(Algorithm::kGpuOnly);
  cfg.hardware.num_gpus = 0;
  EXPECT_FALSE(Train(ds, cfg).ok());
  cfg = SmallConfig(Algorithm::kHsgd);
  cfg.max_epochs = 0;
  EXPECT_FALSE(Train(ds, cfg).ok());
  Dataset empty;
  empty.num_rows = 10;
  empty.num_cols = 10;
  EXPECT_FALSE(Train(empty, SmallConfig(Algorithm::kHsgd)).ok());

  // A config the checkpoint reader would refuse is refused at Create,
  // NaN included.
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  auto rejected = [&](auto mutate) {
    TrainConfig bad = SmallConfig(Algorithm::kHsgdStar);
    mutate(&bad);
    return !Session::Create(ds, bad).ok();
  };
  EXPECT_TRUE(rejected(
      [&](TrainConfig* c) { c->hardware.speed_variability = nan; }));
  EXPECT_TRUE(rejected(
      [](TrainConfig* c) { c->hardware.speed_variability = -0.1; }));
  EXPECT_TRUE(rejected(
      [&](TrainConfig* c) { c->hardware.cpu_updates_per_sec_k128 = inf; }));
  EXPECT_TRUE(rejected([](TrainConfig* c) { c->hardware.gpu_workers = 0; }));
  EXPECT_TRUE(rejected([](TrainConfig* c) { c->hardware.num_gpus = 4097; }));
  EXPECT_TRUE(
      rejected([](TrainConfig* c) { c->max_epochs = (1 << 24) + 1; }));
  EXPECT_TRUE(
      rejected([](TrainConfig* c) { c->eval_threads = (1 << 20) + 1; }));

  // SGD hyper-parameters must be finite and >= 0.
  for (float bad_value : {std::nanf(""), -0.01f, HUGE_VALF}) {
    for (float SgdParams::*field :
         {&SgdParams::learning_rate, &SgdParams::lambda_p,
          &SgdParams::lambda_q}) {
      Dataset bad = ds;
      bad.params.*field = bad_value;
      EXPECT_FALSE(Session::Create(bad, SmallConfig(Algorithm::kHsgd)).ok());
    }
  }

  // Every training rating must be finite too. Restore goes through
  // Create, so it refuses such a split as well.
  for (float bad_rating : {std::nanf(""), HUGE_VALF, -HUGE_VALF}) {
    Dataset bad = ds;
    bad.train[bad.train.size() / 2].r = bad_rating;
    EXPECT_TRUE(
        Session::Create(bad, SmallConfig(Algorithm::kHsgd)).status().code() ==
        StatusCode::kInvalidArgument);
  }

  // The edges Create accepts, a frozen rate and no speed variability,
  // train, save and restore.
  const std::string path = "trainer_test_edges.bin";
  Dataset frozen = ds;
  frozen.params.learning_rate = 0.0f;
  TrainConfig edges = SmallConfig(Algorithm::kHsgdStar);
  edges.hardware.speed_variability = 0.0;
  auto session = Session::Create(frozen, edges);
  EXPECT_TRUE(session.ok());
  if (session.ok()) {
    EXPECT_TRUE((*session)->RunEpoch().ok());
    EXPECT_TRUE((*session)->SaveCheckpoint(path).ok());
    EXPECT_TRUE(Session::Restore(path, frozen).ok());
  }
  std::remove(path.c_str());
}

}  // namespace

void RunAllTests() {
  TestAllAlgorithmsRun();
  TestDeterminism();
  TestTargetStopsEarly();
  TestStarAlphaAndStats();
  TestDynamicNoSlowerThanStatic();
  TestInvalidConfigs();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
