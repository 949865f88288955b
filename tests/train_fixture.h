// Shared training fixture for session_test and trainer_test: a small
// synthetic dataset, a small heterogeneous fleet config, one-shot
// training through Session::Create + RunToCompletion, and bit-exact
// comparisons of trace points and simulated stats.

#pragma once

#include <utility>

#include "core/hsgd.h"
#include "test_main.h"

namespace hsgd {
namespace testing {

inline Dataset SmallDataset(uint64_t seed = 5) {
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

inline TrainConfig SmallConfig(Algorithm algorithm) {
  TrainConfig cfg;
  cfg.algorithm = algorithm;
  cfg.hardware.num_cpu_threads = 4;
  cfg.hardware.num_gpus = 1;
  cfg.max_epochs = 5;
  cfg.use_dataset_target = false;
  cfg.eval_threads = 2;
  return cfg;
}

/// One-shot training: Create + RunToCompletion, returning the final trace
/// and stats.
inline StatusOr<TrainResult> Train(const Dataset& ds,
                                   const TrainConfig& config) {
  auto session = Session::Create(ds, config);
  if (!session.ok()) return session.status();
  HSGD_RETURN_IF_ERROR((*session)->RunToCompletion());
  return TrainResult{(*session)->trace(), (*session)->stats()};
}

inline void ExpectTracePointsEqual(const TracePoint& a, const TracePoint& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.test_rmse, b.test_rmse);
  EXPECT_EQ(a.train_rmse, b.train_rmse);
}

/// Every stat a re-run or resumed session must reproduce exactly.
inline void ExpectStatsEqual(const TrainStats& a, const TrainStats& b) {
  EXPECT_EQ(a.sim.reached_target, b.sim.reached_target);
  EXPECT_EQ(a.sim.seconds, b.sim.seconds);
  EXPECT_EQ(a.sim.alpha, b.sim.alpha);
  EXPECT_EQ(a.sim.stolen_by_gpus, b.sim.stolen_by_gpus);
  EXPECT_EQ(a.sim.stolen_by_cpus, b.sim.stolen_by_cpus);
  EXPECT_EQ(a.sim.update_rate_cv, b.sim.update_rate_cv);
  EXPECT_EQ(a.sim.block_tasks, b.sim.block_tasks);
}

}  // namespace testing
}  // namespace hsgd
