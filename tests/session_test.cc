// Session API tests: stepwise epochs must be bit-identical to a one-shot
// run, checkpoint/restore must reproduce an uninterrupted run exactly,
// each epoch RunEpoch returns must already be in the session's state,
// the sweep's train RMSE must cover exactly the ratings it swept, and
// BatchTopK over the trained factors must agree with a brute-force
// scorer.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "brute_force_topk.h"
#include "core/hsgd.h"
#include "serve/snapshot.h"
#include "test_main.h"
#include "train_fixture.h"

namespace hsgd {
namespace {

using testing::ExpectStatsEqual;
using testing::ExpectTracePointsEqual;
using testing::SmallConfig;
using testing::SmallDataset;
using testing::Train;

// (a) N x RunEpoch == one Train with max_epochs=N, bit-for-bit.
void TestStepwiseMatchesOneShot() {
  Dataset ds = SmallDataset();
  for (Algorithm algorithm :
       {Algorithm::kCpuOnly, Algorithm::kGpuOnly, Algorithm::kHsgd,
        Algorithm::kHsgdStar}) {
    TrainConfig cfg = SmallConfig(algorithm);
    auto oneshot = Train(ds, cfg);
    EXPECT_TRUE(oneshot.ok());
    auto session = Session::Create(ds, cfg);
    EXPECT_TRUE(session.ok());
    if (!oneshot.ok() || !session.ok()) continue;
    int steps = 0;
    while (!(*session)->Done()) {
      auto point = (*session)->RunEpoch();
      EXPECT_TRUE(point.ok());
      if (!point.ok()) break;
      ++steps;
      EXPECT_EQ((*session)->epochs_run(), steps);
      ExpectTracePointsEqual(*point, oneshot->trace.points[steps - 1]);
    }
    EXPECT_EQ(steps, cfg.max_epochs);
    EXPECT_EQ((*session)->trace().points.size(),
              oneshot->trace.points.size());
    ExpectStatsEqual((*session)->stats(), oneshot->stats);
    // The budget is spent: one more epoch is a FailedPrecondition.
    EXPECT_FALSE((*session)->RunEpoch().ok());
  }
}

// (b) checkpoint at epoch k -> restore -> finish matches the
// uninterrupted run exactly — trace, stats and virtual clock.
void TestCheckpointResumeBitIdentical() {
  const std::string path = "session_test_ckpt.bin";
  Dataset ds = SmallDataset();
  // HSGD* with dynamic scheduling on (the acceptance configuration) and
  // HSGD (whose UniformScheduler consumes the policy RNG every Acquire,
  // exercising RNG-state restore).
  for (Algorithm algorithm : {Algorithm::kHsgdStar, Algorithm::kHsgd}) {
    TrainConfig cfg = SmallConfig(algorithm);
    cfg.dynamic_scheduling = true;
    auto reference = Train(ds, cfg);
    EXPECT_TRUE(reference.ok());
    for (int stop_epoch : {1, 3}) {
      auto session = Session::Create(ds, cfg);
      EXPECT_TRUE(session.ok());
      for (int e = 0; e < stop_epoch; ++e) {
        EXPECT_TRUE((*session)->RunEpoch().ok());
      }
      EXPECT_TRUE((*session)->SaveCheckpoint(path).ok());

      auto resumed = Session::Restore(path, ds);
      EXPECT_TRUE(resumed.ok());
      if (!resumed.ok()) continue;
      EXPECT_EQ((*resumed)->epochs_run(), stop_epoch);
      EXPECT_EQ((*resumed)->config().max_epochs, cfg.max_epochs);
      // The restored trace already holds the first k points.
      for (int e = 0; e < stop_epoch; ++e) {
        ExpectTracePointsEqual((*resumed)->trace().points[e],
                               reference->trace.points[e]);
      }
      // The remaining epochs reproduce the uninterrupted run exactly.
      while (!(*resumed)->Done()) {
        auto point = (*resumed)->RunEpoch();
        EXPECT_TRUE(point.ok());
        if (!point.ok()) break;
        ExpectTracePointsEqual(
            *point, reference->trace.points[(*resumed)->epochs_run() - 1]);
      }
      EXPECT_EQ((*resumed)->trace().points.size(),
                reference->trace.points.size());
      ExpectStatsEqual((*resumed)->stats(), reference->stats);
    }
  }
  std::remove(path.c_str());
}

void TestRestoreRejectsWrongDataset() {
  const std::string path = "session_test_ckpt_mismatch.bin";
  Dataset ds = SmallDataset();
  TrainConfig cfg = SmallConfig(Algorithm::kHsgdStar);
  auto session = Session::Create(ds, cfg);
  EXPECT_TRUE(session.ok());
  EXPECT_TRUE((*session)->RunEpoch().ok());
  EXPECT_TRUE((*session)->SaveCheckpoint(path).ok());

  // Same shape, different ratings (different generator seed): rejected.
  Dataset other = SmallDataset(/*seed=*/6);
  EXPECT_FALSE(Session::Restore(path, other).ok());
  // Missing file: rejected.
  EXPECT_FALSE(Session::Restore("no_such_checkpoint.bin", ds).ok());
  // The matching dataset restores fine.
  EXPECT_TRUE(Session::Restore(path, ds).ok());

  // A truncated file is an InvalidArgument, not a crash or bad_alloc.
  {
    auto full = ReadCheckpoint(path);
    EXPECT_TRUE(full.ok());
    FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_TRUE(f != nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::vector<char> bytes(static_cast<size_t>(size) / 2);
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    const std::string truncated = "session_test_ckpt_truncated.bin";
    FILE* out = std::fopen(truncated.c_str(), "wb");
    EXPECT_TRUE(out != nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), out);
    std::fclose(out);
    EXPECT_FALSE(ReadCheckpoint(truncated).ok());
    EXPECT_FALSE(Session::Restore(truncated, ds).ok());
    std::remove(truncated.c_str());
  }
  std::remove(path.c_str());
}

// The fingerprint covers the SGD hyper-parameters and the target: a
// dataset with the same ratings but another learning rate, regularizer
// or target would train to different factors after the resume, so each
// one changed alone is refused, and the message names the values.
void TestRestoreRejectsOtherHyperParameters() {
  const std::string path = "session_test_ckpt_params.bin";
  Dataset ds = SmallDataset();
  ds.target_rmse = 0.5;
  auto session = Session::Create(ds, SmallConfig(Algorithm::kHsgdStar));
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  EXPECT_TRUE((*session)->RunEpoch().ok());
  EXPECT_TRUE((*session)->SaveCheckpoint(path).ok());

  auto expect_refused = [&](const char* name, auto mutate) {
    Dataset other = ds;
    mutate(&other);
    auto restored = Session::Restore(path, other);
    EXPECT_FALSE(restored.ok());
    if (restored.ok()) {
      std::fprintf(stderr, "  (other %s restored)\n", name);
      return;
    }
    EXPECT_TRUE(restored.status().code() == StatusCode::kInvalidArgument);
    EXPECT_TRUE(restored.status().message().find(name) != std::string::npos);
  };
  expect_refused("learning_rate",
                 [](Dataset* d) { d->params.learning_rate *= 4.0f; });
  expect_refused("lambda_p", [](Dataset* d) { d->params.lambda_p *= 2.0f; });
  expect_refused("lambda_q", [](Dataset* d) { d->params.lambda_q *= 2.0f; });
  expect_refused("target_rmse", [](Dataset* d) { d->target_rmse = 0.6; });
  EXPECT_TRUE(Session::Restore(path, ds).ok());
  std::remove(path.c_str());
}

// (d) A damaged checkpoint is a Status, never UB: each header field
// corrupted individually must fail Restore, and no byte flip anywhere in
// the file may crash the reader (this test is part of the ASan/UBSan CI
// sweep). Complements the happy-path round-trip in (b).
void TestCheckpointCorruptionRejected() {
  const std::string path = "session_test_ckpt_corrupt.bin";
  const std::string tmp = "session_test_ckpt_corrupt_tmp.bin";
  // A deliberately tiny model so the whole-file byte-flip sweep below
  // touches every offset cheaply.
  SyntheticSpec spec;
  spec.num_rows = 60;
  spec.num_cols = 50;
  spec.train_nnz = 3000;
  spec.test_nnz = 300;
  spec.params.k = 8;
  auto ds_or = GenerateSynthetic(spec, /*seed=*/9);
  EXPECT_TRUE(ds_or.ok());
  Dataset ds = *std::move(ds_or);
  TrainConfig cfg = SmallConfig(Algorithm::kHsgdStar);
  cfg.max_epochs = 3;
  auto session = Session::Create(ds, cfg);
  EXPECT_TRUE(session.ok());
  EXPECT_TRUE((*session)->RunEpoch().ok());
  EXPECT_TRUE((*session)->RunEpoch().ok());
  EXPECT_TRUE((*session)->SaveCheckpoint(path).ok());
  auto valid = ReadCheckpoint(path);
  EXPECT_TRUE(valid.ok());
  EXPECT_TRUE(Session::Restore(path, ds).ok());

  // Field-level corruption: rewrite the checkpoint with exactly one
  // header field damaged (the factors from the session, which has not
  // moved since the save) and assert Restore rejects it.
  auto expect_rejected = [&](const char* what, auto mutate) {
    SessionCheckpoint ckpt = *valid;
    mutate(&ckpt);
    EXPECT_TRUE(WriteCheckpoint(tmp, ckpt, (*session)->model()).ok());
    if (Session::Restore(tmp, ds).ok()) {
      std::fprintf(stderr, "  (corruption not rejected: %s)\n", what);
      EXPECT_TRUE(false);
    }
  };
  // A field that is wrong whatever the dataset is refused by the reader
  // itself, so ReadCheckpoint (the state alone) refuses it too.
  auto expect_unreadable = [&](const char* what, auto mutate) {
    expect_rejected(what, mutate);
    if (ReadCheckpoint(tmp).ok()) {
      std::fprintf(stderr, "  (corruption read as valid: %s)\n", what);
      EXPECT_TRUE(false);
    }
  };
  expect_rejected("fingerprint num_rows",
                  [](SessionCheckpoint* c) { ++c->dataset.num_rows; });
  expect_rejected("fingerprint num_cols",
                  [](SessionCheckpoint* c) { ++c->dataset.num_cols; });
  expect_rejected("fingerprint k",
                  [](SessionCheckpoint* c) { ++c->dataset.k; });
  expect_rejected("fingerprint train_nnz",
                  [](SessionCheckpoint* c) { ++c->dataset.train_nnz; });
  expect_rejected("fingerprint test_nnz",
                  [](SessionCheckpoint* c) { ++c->dataset.test_nnz; });
  expect_rejected("fingerprint train_hash",
                  [](SessionCheckpoint* c) { c->dataset.train_hash ^= 1; });
  expect_rejected("fingerprint test_hash",
                  [](SessionCheckpoint* c) { c->dataset.test_hash ^= 1; });
  expect_unreadable("epoch counter ahead",
                    [](SessionCheckpoint* c) { ++c->epochs_run; });
  expect_unreadable("negative epoch counter",
                    [](SessionCheckpoint* c) { c->epochs_run = -1; });
  expect_unreadable("zero epoch budget",
                    [](SessionCheckpoint* c) { c->config.max_epochs = 0; });
  expect_unreadable("unknown algorithm enum", [](SessionCheckpoint* c) {
    c->config.algorithm = static_cast<Algorithm>(42);
  });
  expect_unreadable("unknown cost-model enum", [](SessionCheckpoint* c) {
    c->config.cost_model = static_cast<CostModelKind>(9);
  });
  expect_unreadable("zero eval threads",
                    [](SessionCheckpoint* c) { c->config.eval_threads = 0; });
  expect_unreadable("NaN speed variability", [](SessionCheckpoint* c) {
    c->config.hardware.speed_variability =
        std::numeric_limits<double>::quiet_NaN();
  });
  expect_unreadable("negative CPU rate", [](SessionCheckpoint* c) {
    c->config.hardware.cpu_updates_per_sec_k128 = -1.0;
  });
  expect_unreadable("zero GPU workers", [](SessionCheckpoint* c) {
    c->config.hardware.gpu_workers = 0;
  });
  expect_unreadable("absurd GPU fleet", [](SessionCheckpoint* c) {
    c->config.hardware.num_gpus = 1 << 20;
  });
  expect_unreadable("truncated trace",
                    [](SessionCheckpoint* c) { c->trace.pop_back(); });
  expect_unreadable("zero rating count",
                    [](SessionCheckpoint* c) { c->rating_count = 0; });
  expect_unreadable("NaN rating sum", [](SessionCheckpoint* c) {
    c->rating_sum = std::numeric_limits<double>::quiet_NaN();
  });
  expect_rejected("extra GPU stream state", [](SessionCheckpoint* c) {
    c->gpu_streams.push_back(GpuStreamState{});
  });

  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_TRUE(f != nullptr);
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<unsigned char> bytes(static_cast<size_t>(file_size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  auto write_tmp = [&](size_t length) {
    FILE* out = std::fopen(tmp.c_str(), "wb");
    EXPECT_TRUE(out != nullptr);
    std::fwrite(bytes.data(), 1, length, out);
    std::fclose(out);
  };

  // Truncated factors: a file cut inside the last factor row.
  write_tmp(bytes.size() - sizeof(float) / 2);
  EXPECT_TRUE(ReadCheckpoint(tmp).status().code() ==
              StatusCode::kInvalidArgument);
  EXPECT_TRUE(Session::Restore(tmp, ds).status().code() ==
              StatusCode::kInvalidArgument);

  // Byte-flip sweep over the entire file: ReadCheckpoint must always
  // come back with a value or an error, never crash; flips inside the
  // magic/version prologue must always be rejected. Flips in the header
  // and config region additionally go through a full Restore attempt.
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0xFF;
    write_tmp(bytes.size());
    auto flipped = ReadCheckpoint(tmp);
    if (i < 12) {  // magic (8) + version (4): unconditionally fatal
      EXPECT_FALSE(flipped.ok());
    }
    if (flipped.ok() && i < 256) {
      // May legitimately succeed (e.g. a benign stat-field flip) — the
      // assertion is that it never crashes or hangs.
      (void)Session::Restore(tmp, ds);
    }
    bytes[i] ^= 0xFF;
  }

  std::remove(tmp.c_str());
  std::remove(path.c_str());
}

// Checks an epoch's train_rmse against the ratings-list Rmse over the
// session's whole training split. Only valid at learning rate 0, where
// the sweep never moves the factors, so its pre-update errors are the
// errors of the session's current model and only the summation order
// differs; a dropped or doubled block moves the value by far more than
// the tolerance.
void ExpectTrainRmseCoversTrainingSet(const Session& session,
                                      const TracePoint& point) {
  const double reference =
      Rmse(session.model(), session.dataset().train, nullptr,
           &GetKernelOps(session.kernel()));
  EXPECT_TRUE(reference > 0.0);
  EXPECT_NEAR(point.train_rmse, reference, 1e-12 * reference);
}

Dataset FrozenDataset() {
  Dataset ds = SmallDataset();
  ds.params.learning_rate = 0.0f;
  return ds;
}

// Every algorithm's full epoch sweeps exactly the training split, at
// eval_threads 1 and 7, and its train_rmse has the same bits at both.
void TestTrainRmseCoversTrainingSet() {
  const Dataset ds = FrozenDataset();
  for (Algorithm algorithm :
       {Algorithm::kCpuOnly, Algorithm::kGpuOnly, Algorithm::kHsgd,
        Algorithm::kHsgdStar}) {
    std::vector<std::vector<double>> losses;
    for (int eval_threads : {1, 7}) {
      TrainConfig cfg = SmallConfig(algorithm);
      cfg.max_epochs = 3;
      cfg.eval_threads = eval_threads;
      auto session = Session::Create(ds, cfg);
      EXPECT_TRUE(session.ok());
      if (!session.ok()) continue;
      const std::vector<float> init_p = (*session)->model().DenseP();
      losses.emplace_back();
      while (!(*session)->Done()) {
        auto point = (*session)->RunEpoch();
        EXPECT_TRUE(point.ok());
        if (!point.ok()) break;
        ExpectTrainRmseCoversTrainingSet(**session, *point);
        losses.back().push_back(point->train_rmse);
      }
      EXPECT_EQ(losses.back().size(), static_cast<size_t>(cfg.max_epochs));
      // The reference's premise: rate 0 leaves the factors as created.
      EXPECT_TRUE((*session)->model().DenseP() == init_p);
    }
    EXPECT_EQ(losses.size(), 2u);
    if (losses.size() == 2) EXPECT_TRUE(losses[0] == losses[1]);
  }
}

// GPU-Only has a single block, so an incremental epoch's dirty block is
// the whole grown training set: after a warm append and after a cold one
// that grows the model, train_rmse covers every rating.
void TestIncrementalTrainRmseCoversGrownSet() {
  const Dataset ds = FrozenDataset();
  const int32_t rows = ds.num_rows;
  const int32_t cols = ds.num_cols;
  for (int eval_threads : {1, 7}) {
    TrainConfig cfg = SmallConfig(Algorithm::kGpuOnly);
    cfg.eval_threads = eval_threads;
    auto session = Session::Create(ds, cfg);
    EXPECT_TRUE(session.ok());
    if (!session.ok()) continue;
    Session* s = session->get();
    auto check_epoch = [s](const StatusOr<TracePoint>& point) {
      EXPECT_TRUE(point.ok());
      if (point.ok()) ExpectTrainRmseCoversTrainingSet(*s, *point);
    };
    check_epoch(s->RunEpoch());
    EXPECT_TRUE(
        s->AppendRatings({{0, 0, 4.0f}, {rows - 1, cols - 1, 2.5f}}).ok());
    EXPECT_EQ(s->pending_dirty_blocks(), 1);
    check_epoch(s->RunIncrementalEpoch());
    EXPECT_TRUE(
        s->AppendRatings({{rows + 4, 2, 5.0f}, {3, cols + 1, 1.5f}}).ok());
    EXPECT_EQ(s->model().num_rows(), rows + 5);
    EXPECT_EQ(s->pending_dirty_blocks(), 1);
    check_epoch(s->RunIncrementalEpoch());
    EXPECT_EQ(s->dataset().train_size(), ds.train_size() + 4);
  }
}

// Without a test split, test_rmse falls back to train_rmse, the sweep
// loss, on full and incremental epochs alike.
void TestEmptyTestSplitReportsSweepLoss() {
  const Dataset base = SmallDataset();
  auto ds = MakeDataset(base.train, {}, base.num_rows, base.num_cols,
                        base.params);
  EXPECT_TRUE(ds.ok());
  if (!ds.ok()) return;
  auto session = Session::Create(*ds, SmallConfig(Algorithm::kHsgdStar));
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  Session* s = session->get();
  int checked = 0;
  auto check_epoch = [&](const StatusOr<TracePoint>& point) {
    EXPECT_TRUE(point.ok());
    if (!point.ok()) return;
    EXPECT_TRUE(std::isfinite(point->train_rmse));
    EXPECT_EQ(point->test_rmse, point->train_rmse);
    ++checked;
  };
  check_epoch(s->RunEpoch());
  check_epoch(s->RunEpoch());
  EXPECT_TRUE(s->AppendRatings({{0, 0, 4.0f}, {10, 20, 3.0f}}).ok());
  check_epoch(s->RunIncrementalEpoch());
  check_epoch(s->RunEpoch());
  EXPECT_EQ(checked, s->epochs_run());
}

// The TracePoint RunEpoch returns is already the session's latest state,
// and a trivially reachable target stops the session after one epoch.
void TestRunEpochLoop() {
  Dataset ds = SmallDataset();
  TrainConfig cfg = SmallConfig(Algorithm::kHsgdStar);
  auto session = Session::Create(ds, cfg);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  while (!(*session)->Done()) {
    auto point = (*session)->RunEpoch();
    EXPECT_TRUE(point.ok());
    if (!point.ok()) break;
    EXPECT_EQ((*session)->epochs_run(), point->epoch);
    EXPECT_EQ((*session)->trace().points.back().epoch, point->epoch);
    EXPECT_EQ((*session)->stats().sim.seconds, point->time);
  }
  EXPECT_EQ((*session)->epochs_run(), cfg.max_epochs);
  EXPECT_FALSE((*session)->stats().sim.reached_target);  // target is off

  Dataset easy = SmallDataset();
  easy.target_rmse = 100.0;
  TrainConfig easy_cfg = SmallConfig(Algorithm::kCpuOnly);
  easy_cfg.use_dataset_target = true;
  auto easy_session = Session::Create(easy, easy_cfg);
  EXPECT_TRUE(easy_session.ok());
  if (!easy_session.ok()) return;
  EXPECT_FALSE((*easy_session)->Done());
  EXPECT_TRUE((*easy_session)->RunEpoch().ok());
  EXPECT_TRUE((*easy_session)->Done());
  EXPECT_TRUE((*easy_session)->stats().sim.reached_target);
  EXPECT_EQ((*easy_session)->epochs_run(), 1);
  EXPECT_TRUE((*easy_session)->RunEpoch().status().code() ==
              StatusCode::kFailedPrecondition);
}

// Invalid fleets, an empty epoch budget or eval pool, and an empty
// dataset are all rejected at Create.
void TestCreateValidation() {
  Dataset ds = SmallDataset();
  TrainConfig cfg = SmallConfig(Algorithm::kCpuOnly);
  cfg.hardware.num_cpu_threads = 0;
  EXPECT_FALSE(Session::Create(ds, cfg).ok());
  cfg = SmallConfig(Algorithm::kGpuOnly);
  cfg.hardware.num_gpus = 0;
  EXPECT_FALSE(Session::Create(ds, cfg).ok());
  cfg = SmallConfig(Algorithm::kHsgd);
  cfg.max_epochs = 0;
  EXPECT_FALSE(Session::Create(ds, cfg).ok());
  cfg = SmallConfig(Algorithm::kHsgd);
  cfg.eval_threads = 0;
  EXPECT_FALSE(Session::Create(ds, cfg).ok());
  Dataset empty;
  empty.num_rows = 10;
  empty.num_cols = 10;
  EXPECT_FALSE(Session::Create(empty, SmallConfig(Algorithm::kHsgd)).ok());
}

// (c) TopK over trained factors: sorted scores, rated items excluded,
// bitwise agreement with a brute-force scorer.
void TestBatchTopKOverTrainedFactors() {
  Dataset ds = SmallDataset();
  TrainConfig cfg = SmallConfig(Algorithm::kHsgdStar);
  cfg.max_epochs = 3;
  auto session = Session::Create(ds, cfg);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  EXPECT_TRUE((*session)->RunToCompletion().ok());
  const Model& model = (*session)->model();
  auto snap = serve::FactorSnapshot::FromModel(model, ds.train, 1);
  EXPECT_TRUE(snap.ok());
  if (!snap.ok()) return;

  const int k = 10;
  const std::vector<serve::TopKQuery> queries = {{0, k}, {7, k}, {599, k}};
  auto results =
      serve::BatchTopK(**snap, queries.data(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const int32_t user = queries[q].user;
    EXPECT_TRUE(results[q].ok());
    if (!results[q].ok()) continue;
    const std::vector<ScoredItem>& top = *results[q];
    EXPECT_EQ(top.size(), static_cast<size_t>(k));

    // Scores are sorted descending (ties broken by ascending item id).
    for (size_t i = 1; i < top.size(); ++i) {
      const ScoredItem& prev = top[i - 1];
      const ScoredItem& cur = top[i];
      EXPECT_TRUE(prev.score > cur.score ||
                  (prev.score == cur.score && prev.item < cur.item));
    }

    // Rated items are excluded.
    std::vector<char> rated(static_cast<size_t>(ds.num_cols), 0);
    for (const Rating& r : ds.train) {
      if (r.u == user) rated[static_cast<size_t>(r.v)] = 1;
    }
    for (const ScoredItem& item : top) {
      EXPECT_FALSE(rated[static_cast<size_t>(item.item)]);
    }

    // Brute force agreement: same items, same order, same score bits.
    EXPECT_SAME_TOPK(top, testing::BruteForceTopK(model, ds.train, user, k));
  }

  // k past the catalog returns everything unrated, still sorted.
  const serve::TopKQuery everything_query{0, ds.num_cols + 50};
  auto everything = serve::BatchTopK(**snap, &everything_query, 1);
  EXPECT_TRUE(everything[0].ok());
  if (everything[0].ok()) {
    EXPECT_EQ(everything[0]->size(),
              static_cast<size_t>(ds.num_cols) -
                  static_cast<size_t>((*snap)->NumRated(0)));
  }

  // Invalid queries are errors, not crashes.
  const serve::TopKQuery invalid[] = {{-1, k}, {ds.num_rows, k}, {0, 0}};
  for (const auto& result : serve::BatchTopK(**snap, invalid, 3)) {
    EXPECT_FALSE(result.ok());
  }
}

// (e) Online append: warm and cold ratings grow the session in place,
// incremental epochs sweep only the dirty blocks, and the error paths
// are typed. Leaves the final factors in `p` and `q`.
void RunAppendAndIncrementalEpoch(int eval_threads, std::vector<float>* p,
                                  std::vector<float>* q) {
  Dataset ds = SmallDataset();
  const int32_t rows = ds.num_rows;
  const int32_t cols = ds.num_cols;
  TrainConfig cfg = SmallConfig(Algorithm::kHsgdStar);
  cfg.max_epochs = 50;  // headroom: incremental epochs consume budget too
  cfg.eval_threads = eval_threads;
  auto session = Session::Create(ds, cfg);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  Session* s = session->get();
  int checked = 0;
  auto check_epoch = [&](const StatusOr<TracePoint>& point) {
    EXPECT_TRUE(point.ok());
    if (!point.ok()) return;
    EXPECT_TRUE(std::isfinite(point->train_rmse) && point->train_rmse > 0.0);
    // The sweep's lanes evaluate the test split as its strata finish; the
    // result is the list-order Rmse over the epoch's final factors.
    EXPECT_EQ(point->test_rmse,
              Rmse(s->model(), s->dataset().test, nullptr,
                   &GetKernelOps(s->kernel())));
    ++checked;
  };
  check_epoch(s->RunEpoch());

  // Nothing pending: the incremental epoch refuses, typed.
  EXPECT_TRUE(s->RunIncrementalEpoch().status().code() ==
              StatusCode::kFailedPrecondition);

  // Ids outside [0, INT32_MAX) and NaN or infinite ratings:
  // InvalidArgument with nothing mutated, also when a valid rating
  // precedes the bad one in its batch. The rating moments feed cold-row
  // init and every checkpoint.
  const std::string path = "session_test_append_moments.bin";
  auto moments = [&]() {
    EXPECT_TRUE(s->SaveCheckpoint(path).ok());
    auto ckpt = ReadCheckpoint(path);
    EXPECT_TRUE(ckpt.ok());
    return ckpt.ok() ? std::make_pair(ckpt->rating_sum, ckpt->rating_count)
                     : std::make_pair(0.0, int64_t{0});
  };
  const auto moments_before = moments();
  constexpr int32_t kMaxId = std::numeric_limits<int32_t>::max();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const Ratings refused[] = {
      {{-1, 0, 3.0f}},
      {{0, 0, 4.0f}, {kMaxId, 0, 5.0f}},
      {{0, kMaxId, 5.0f}},
      {{5, 7, std::numeric_limits<float>::quiet_NaN()}},
      {{0, 0, 4.0f}, {5, 7, kInf}},
      {{5, 7, -kInf}}};
  for (const Ratings& batch : refused) {
    EXPECT_TRUE(s->AppendRatings(batch).code() ==
                StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(s->pending_nnz(), 0);
  EXPECT_EQ(s->appended_nnz(), 0);
  EXPECT_EQ(s->pending_dirty_blocks(), 0);
  EXPECT_EQ(s->dataset().num_rows, rows);
  EXPECT_EQ(s->dataset().num_cols, cols);
  EXPECT_EQ(s->dataset().train_size(), ds.train_size());
  EXPECT_TRUE(moments() == moments_before);
  std::remove(path.c_str());

  // Warm append: ids inside the current extent dirty their blocks only.
  Ratings warm = {{0, 0, 4.0f}, {rows - 1, cols - 1, 2.5f}, {10, 20, 3.0f}};
  EXPECT_TRUE(s->AppendRatings(warm).ok());
  EXPECT_EQ(s->pending_nnz(), 3);
  EXPECT_EQ(s->appended_nnz(), 3);
  const int dirty = s->pending_dirty_blocks();
  EXPECT_LT(0, dirty);
  EXPECT_TRUE(dirty <= 3);
  const int epochs_before = s->epochs_run();
  const int64_t nnz_before = s->stats().sim.nnz_processed;
  auto inc = s->RunIncrementalEpoch();
  check_epoch(inc);
  EXPECT_EQ(s->epochs_run(), epochs_before + 1);
  EXPECT_EQ(s->pending_nnz(), 0);
  EXPECT_EQ(s->pending_dirty_blocks(), 0);
  if (inc.ok()) {
    EXPECT_EQ(inc->epoch, s->epochs_run());
    EXPECT_TRUE(inc->test_rmse > 0.0);
  }
  // Only the dirty blocks' ratings were visited — far fewer updates than
  // the preceding full epoch applied.
  const int64_t inc_nnz = s->stats().sim.nnz_processed - nnz_before;
  EXPECT_LT(0, inc_nnz);
  EXPECT_LT(inc_nnz, nnz_before);

  // Cold append: ids past the extent grow dataset, model, and grid.
  Ratings cold = {{rows + 4, 2, 5.0f}, {3, cols + 1, 1.5f}};
  EXPECT_TRUE(s->AppendRatings(cold).ok());
  EXPECT_EQ(s->dataset().num_rows, rows + 5);
  EXPECT_EQ(s->dataset().num_cols, cols + 2);
  EXPECT_EQ(s->model().num_rows(), rows + 5);
  EXPECT_EQ(s->model().num_cols(), cols + 2);
  check_epoch(s->RunIncrementalEpoch());
  // The grown corner is scoreable right away.
  EXPECT_TRUE(std::isfinite(s->model().Predict(rows + 4, cols + 1)));

  // A full epoch still runs on the grown session.
  check_epoch(s->RunEpoch());
  EXPECT_EQ(checked, s->epochs_run());
  *p = s->model().DenseP();
  *q = s->model().DenseQ();
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The same append sequence gives the same factor bits whatever the size
// of the pool that runs the epochs' SGD blocks.
void TestAppendAndIncrementalEpoch() {
  std::vector<float> p1, q1, p7, q7;
  RunAppendAndIncrementalEpoch(1, &p1, &q1);
  RunAppendAndIncrementalEpoch(7, &p7, &q7);
  EXPECT_FALSE(p1.empty());
  EXPECT_TRUE(SameBits(p1, p7));
  EXPECT_TRUE(SameBits(q1, q7));
}

// (f) Model::Grow: same stride, old factor bits untouched, new rows in
// InitRandom's range, padding lanes zero everywhere (kernel invariant).
void TestModelGrowAlignment() {
  const int kRank = 5;  // pads: PaddedStride(5) > 5
  Model model(6, 5, kRank);
  Rng init(3, 1);
  model.InitRandom(&init, 3.5);
  const int stride = model.stride();
  EXPECT_LT(kRank, stride);
  const std::vector<float> p_before = model.DenseP();
  const std::vector<float> q_before = model.DenseQ();

  Rng growth(3, 29);
  model.Grow(9, 7, &growth, 3.5);
  EXPECT_EQ(model.num_rows(), 9);
  EXPECT_EQ(model.num_cols(), 7);
  EXPECT_EQ(model.stride(), stride);

  const std::vector<float> p_after = model.DenseP();
  const std::vector<float> q_after = model.DenseQ();
  EXPECT_EQ(std::memcmp(p_before.data(), p_after.data(),
                        p_before.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(q_before.data(), q_after.data(),
                        q_before.size() * sizeof(float)),
            0);

  const float hi = 2.0f * std::sqrt(3.5f / kRank);
  for (int32_t u = 0; u < model.num_rows(); ++u) {
    const float* row = model.Row(u);
    for (int f = kRank; f < stride; ++f) EXPECT_EQ(row[f], 0.0f);
    if (u >= 6) {
      for (int f = 0; f < kRank; ++f) {
        EXPECT_TRUE(row[f] >= 0.0f && row[f] < hi);
      }
    }
  }
  for (int32_t v = 0; v < model.num_cols(); ++v) {
    const float* col = model.Col(v);
    for (int f = kRank; f < stride; ++f) EXPECT_EQ(col[f], 0.0f);
  }

  // Equal-dimension Grow is a no-op, not an error.
  const std::vector<float> p_frozen = model.DenseP();
  model.Grow(9, 7, &growth, 3.5);
  EXPECT_EQ(model.num_rows(), 9);
  EXPECT_EQ(std::memcmp(p_frozen.data(), model.DenseP().data(),
                        p_frozen.size() * sizeof(float)),
            0);
}

// (f2) Streaming growth, a row and a column at a time: every step keeps
// the old factor bits and the zero padding, draws the new row and column
// from the rng in order, and the storage moves only when the headroom
// runs out, not on every step.
void TestModelGrowInPlace() {
  const int kRank = 5;
  Model model(64, 48, kRank);
  Rng init(5, 1);
  model.InitRandom(&init, 3.5);
  Rng growth(5, 29);
  Rng replay(5, 29);
  const float hi = 2.0f * std::sqrt(3.5f / kRank);
  int steps = 0;
  int moves = 0;
  for (int32_t rows = 65, cols = 49; rows <= 200; ++rows, ++cols) {
    const std::vector<float> p_before = model.DenseP();
    const std::vector<float> q_before = model.DenseQ();
    const float* p_data = model.p_data();
    const float* q_data = model.q_data();
    model.Grow(rows, cols, &growth, 3.5);
    ++steps;
    moves += model.p_data() != p_data ? 1 : 0;
    moves += model.q_data() != q_data ? 1 : 0;
    EXPECT_EQ(std::memcmp(p_before.data(), model.DenseP().data(),
                          p_before.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(q_before.data(), model.DenseQ().data(),
                          q_before.size() * sizeof(float)),
              0);
    for (const float* row : {model.Row(rows - 1), model.Col(cols - 1)}) {
      for (int f = 0; f < kRank; ++f) {
        EXPECT_EQ(row[f], replay.NextFloat() * hi);
      }
      for (int f = kRank; f < model.stride(); ++f) EXPECT_EQ(row[f], 0.0f);
    }
  }
  EXPECT_LT(0, moves);
  EXPECT_LT(moves, steps / 2);  // two matrices, so at most a quarter each
}

// (g) A grown session checkpoints and restores with bit-identical
// factors; the pre-growth dataset no longer passes the fingerprint.
// Restoring over the warm base plus the growth rebuilds the original's
// grid, so the next epoch matches it bit for bit; growth that is not
// what the session appended is refused.
void TestGrownCheckpointRoundTrip() {
  const std::string path = "session_test_ckpt_grown.bin";
  Dataset ds = SmallDataset();
  const int32_t rows = ds.num_rows;
  const int32_t cols = ds.num_cols;
  TrainConfig cfg = SmallConfig(Algorithm::kHsgdStar);
  cfg.max_epochs = 20;
  auto session = Session::Create(ds, cfg);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  Session* s = session->get();
  EXPECT_TRUE(s->RunEpoch().ok());
  // A save before the append, so the append lands on a cached dataset
  // fingerprint that it must drop.
  EXPECT_TRUE(s->SaveCheckpoint(path).ok());
  Ratings grow = {{rows, 10, 4.0f}, {rows + 1, cols + 2, 3.0f},
                  {5, cols, 2.0f}};
  EXPECT_TRUE(s->AppendRatings(grow).ok());
  EXPECT_TRUE(s->RunIncrementalEpoch().ok());
  EXPECT_TRUE(s->SaveCheckpoint(path).ok());

  // Restore against the GROWN dataset (a copy of the session's own).
  auto resumed = Session::Restore(path, s->dataset());
  EXPECT_TRUE(resumed.ok());
  if (resumed.ok()) {
    EXPECT_EQ((*resumed)->model().num_rows(), rows + 2);
    EXPECT_EQ((*resumed)->model().num_cols(), cols + 3);
    EXPECT_EQ((*resumed)->epochs_run(), s->epochs_run());
    const std::vector<float> p0 = s->model().DenseP();
    const std::vector<float> p1 = (*resumed)->model().DenseP();
    const std::vector<float> q0 = s->model().DenseQ();
    const std::vector<float> q1 = (*resumed)->model().DenseQ();
    EXPECT_EQ(p0.size(), p1.size());
    EXPECT_EQ(q0.size(), q1.size());
    if (p0.size() == p1.size() && q0.size() == q1.size()) {
      EXPECT_EQ(std::memcmp(p0.data(), p1.data(),
                            p0.size() * sizeof(float)),
                0);
      EXPECT_EQ(std::memcmp(q0.data(), q1.data(),
                            q0.size() * sizeof(float)),
                0);
    }
  }
  EXPECT_FALSE(Session::Restore(path, ds).ok());

  auto rebuilt = Session::Restore(path, ds, {grow});
  EXPECT_TRUE(rebuilt.ok());
  if (rebuilt.ok()) {
    Session* r = rebuilt->get();
    EXPECT_EQ(r->pending_nnz(), 0);
    EXPECT_EQ(r->pending_dirty_blocks(), 0);
    auto next = s->RunEpoch();
    auto next_rebuilt = r->RunEpoch();
    EXPECT_TRUE(next.ok() && next_rebuilt.ok());
    if (next.ok() && next_rebuilt.ok()) {
      ExpectTracePointsEqual(*next, *next_rebuilt);
    }
    EXPECT_TRUE(SameBits(s->model().DenseP(), r->model().DenseP()));
    EXPECT_TRUE(SameBits(s->model().DenseQ(), r->model().DenseQ()));
  }
  Ratings changed = grow;
  changed[1].r = 5.0f;
  EXPECT_TRUE(Session::Restore(path, ds, {changed}).status().code() ==
              StatusCode::kInvalidArgument);
  EXPECT_TRUE(Session::Restore(path, ds, {grow, grow}).status().code() ==
              StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// A save while appended ratings are untrained is refused and changes
// nothing: Restore replays growth as already trained, so such a
// checkpoint would silently drop the appends from the next incremental
// epoch. Once RunIncrementalEpoch has trained them the save lands, and
// the restored session continues exactly like the original.
void TestSaveRefusesUntrainedAppends() {
  const std::string path = "session_test_ckpt_pending.bin";
  std::remove(path.c_str());
  Dataset ds = SmallDataset();
  TrainConfig cfg = SmallConfig(Algorithm::kHsgd);
  cfg.max_epochs = 10;
  auto session = Session::Create(ds, cfg);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  Session* s = session->get();
  EXPECT_TRUE(s->RunEpoch().ok());
  const Ratings batch = {{0, 0, 4.0f}, {1, 2, 3.0f}, {10, 20, 2.5f}};
  EXPECT_TRUE(s->AppendRatings(batch).ok());
  EXPECT_TRUE(s->SaveCheckpoint(path).code() ==
              StatusCode::kFailedPrecondition);
  EXPECT_TRUE(ReadCheckpoint(path).status().code() == StatusCode::kNotFound);
  EXPECT_EQ(s->pending_nnz(), 3);
  EXPECT_LT(0, s->pending_dirty_blocks());

  EXPECT_TRUE(s->RunIncrementalEpoch().ok());
  EXPECT_TRUE(s->SaveCheckpoint(path).ok());
  auto restored = Session::Restore(path, ds, {batch});
  EXPECT_TRUE(restored.ok());
  if (restored.ok()) {
    Session* r = restored->get();
    EXPECT_EQ(r->epochs_run(), s->epochs_run());
    EXPECT_EQ(r->pending_nnz(), 0);
    auto next = s->RunEpoch();
    auto next_restored = r->RunEpoch();
    EXPECT_TRUE(next.ok() && next_restored.ok());
    if (next.ok() && next_restored.ok()) {
      ExpectTracePointsEqual(*next, *next_restored);
    }
    EXPECT_TRUE(SameBits(s->model().DenseP(), r->model().DenseP()));
    EXPECT_TRUE(SameBits(s->model().DenseQ(), r->model().DenseQ()));
  }
  std::remove(path.c_str());
}

// SaveCheckpoint takes the epoch barrier: a save issued while another
// thread holds it (here through VisitQuiesced) returns only after the
// holder lets go, so it never reads factors an epoch or an append is
// still writing.
void TestSaveWaitsForBarrier() {
  const std::string path = "session_test_ckpt_barrier.bin";
  Dataset ds = SmallDataset();
  auto session = Session::Create(ds, SmallConfig(Algorithm::kCpuOnly));
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  Session* s = session->get();
  EXPECT_TRUE(s->RunEpoch().ok());

  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  Status visited = Status::Ok();
  std::thread holder([&] {
    visited = s->VisitQuiesced([&]() {
      started.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      finished.store(true);
      return Status::Ok();
    });
  });
  while (!started.load()) std::this_thread::yield();
  EXPECT_TRUE(s->SaveCheckpoint(path).ok());
  EXPECT_TRUE(finished.load());
  holder.join();
  EXPECT_TRUE(visited.ok());
  std::remove(path.c_str());
}

// (h) VisitQuiesced: runs the callback between epochs (propagating its
// Status), and the barrier is free again as soon as RunEpoch or
// RunIncrementalEpoch returns, which is what lets the caller's loop
// publish a snapshot after each epoch.
void TestVisitQuiescedBarrier() {
  Dataset ds = SmallDataset();
  auto session = Session::Create(ds, SmallConfig(Algorithm::kCpuOnly));
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  Session* s = session->get();

  int calls = 0;
  EXPECT_TRUE(s->VisitQuiesced([&calls]() {
                 ++calls;
                 return Status::Ok();
               }).ok());
  EXPECT_EQ(calls, 1);
  auto propagated =
      s->VisitQuiesced([]() { return Status::Internal("boom"); });
  EXPECT_TRUE(propagated.code() == StatusCode::kInternal);

  auto visit = [s]() {
    return s->VisitQuiesced([]() { return Status::Ok(); }).ok();
  };
  EXPECT_TRUE(s->RunEpoch().ok());
  EXPECT_TRUE(visit());
  EXPECT_TRUE(s->AppendRatings({{0, 0, 4.0f}}).ok());
  EXPECT_TRUE(visit());
  EXPECT_TRUE(s->RunIncrementalEpoch().ok());
  EXPECT_TRUE(visit());
}

void TestTraceEmptyAndMonotone() {
  Trace empty;
  // Documented guard: an empty trace never reaches anything.
  EXPECT_TRUE(empty.TimeToReach(1e9) >= kSimTimeNever);

  // A fresh session has an empty trace until its first epoch.
  Dataset ds = SmallDataset();
  auto session = Session::Create(ds, SmallConfig(Algorithm::kCpuOnly));
  EXPECT_TRUE(session.ok());
  EXPECT_TRUE((*session)->trace().points.empty());
  EXPECT_TRUE((*session)->trace().TimeToReach(1e9) >= kSimTimeNever);
  EXPECT_TRUE((*session)->RunEpoch().ok());
  EXPECT_EQ((*session)->trace().points.size(), 1u);
  EXPECT_TRUE((*session)->trace().TimeToReach(1e9) <
              kSimTimeNever);
}

}  // namespace

void RunAllTests() {
  TestStepwiseMatchesOneShot();
  TestCheckpointResumeBitIdentical();
  TestRestoreRejectsWrongDataset();
  TestRestoreRejectsOtherHyperParameters();
  TestCheckpointCorruptionRejected();
  TestRunEpochLoop();
  TestTrainRmseCoversTrainingSet();
  TestIncrementalTrainRmseCoversGrownSet();
  TestEmptyTestSplitReportsSweepLoss();
  TestCreateValidation();
  TestBatchTopKOverTrainedFactors();
  TestAppendAndIncrementalEpoch();
  TestModelGrowAlignment();
  TestModelGrowInPlace();
  TestGrownCheckpointRoundTrip();
  TestSaveRefusesUntrainedAppends();
  TestSaveWaitsForBarrier();
  TestVisitQuiescedBarrier();
  TestTraceEmptyAndMonotone();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
