#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/model.h"
#include "sched/blocked_matrix.h"
#include "test_main.h"

namespace hsgd {
namespace {

void TestRmseHandComputed() {
  // 2x2 matrix, k=2, factors set by hand.
  Model model(2, 2, 2);
  model.Row(0)[0] = 1.0f;  model.Row(0)[1] = 0.0f;
  model.Row(1)[0] = 0.0f;  model.Row(1)[1] = 2.0f;
  model.Col(0)[0] = 1.0f;  model.Col(0)[1] = 1.0f;
  model.Col(1)[0] = 0.5f;  model.Col(1)[1] = 0.0f;
  // Predictions: (0,0)=1, (0,1)=0.5, (1,0)=2, (1,1)=0.
  EXPECT_NEAR(model.Predict(0, 0), 1.0, 1e-6);
  EXPECT_NEAR(model.Predict(0, 1), 0.5, 1e-6);
  EXPECT_NEAR(model.Predict(1, 0), 2.0, 1e-6);
  EXPECT_NEAR(model.Predict(1, 1), 0.0, 1e-6);

  Ratings ratings = {
      {0, 0, 2.0f},  // err 1
      {0, 1, 0.5f},  // err 0
      {1, 0, 4.0f},  // err 2
      {1, 1, 1.0f},  // err 1
  };
  // RMSE = sqrt((1 + 0 + 4 + 1) / 4) = sqrt(1.5)
  EXPECT_NEAR(Rmse(model, ratings, nullptr), std::sqrt(1.5), 1e-6);
}

Dataset TinyDataset() {
  SyntheticSpec spec;
  spec.num_rows = 300;
  spec.num_cols = 200;
  spec.train_nnz = 20000;
  spec.test_nnz = 2000;
  spec.params.k = 16;
  spec.noise_stddev = 0.3;
  auto ds = GenerateSynthetic(spec, 5);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

void TestSgdConverges() {
  Dataset ds = TinyDataset();
  Model model(ds.num_rows, ds.num_cols, ds.params.k);
  Rng rng(1);
  model.InitRandom(&rng, ComputeStats(ds.train).mean_rating);
  SgdHyper hyper{0.01f, 0.05f, 0.05f};

  double before = Rmse(model, ds.train, nullptr);
  for (int epoch = 0; epoch < 10; ++epoch) {
    SgdUpdateBlock(&model, ds.train, hyper);
  }
  double after = Rmse(model, ds.train, nullptr);
  EXPECT_LT(after, before * 0.7);
  // Generalization: test RMSE should approach the noise floor.
  EXPECT_LT(Rmse(model, ds.test, nullptr), 0.6);
}

void TestSgdReturnsSquaredError() {
  Dataset ds = TinyDataset();
  Model model(ds.num_rows, ds.num_cols, ds.params.k);
  Rng rng(1);
  model.InitRandom(&rng, ComputeStats(ds.train).mean_rating);
  double pre_rmse = Rmse(model, ds.train, nullptr);
  // With learning_rate 0 the sweep changes nothing, so the reported
  // squared error must match the standalone evaluation exactly.
  SgdHyper frozen{0.0f, 0.0f, 0.0f};
  double sq = SgdUpdateBlock(&model, ds.train, frozen);
  EXPECT_NEAR(std::sqrt(sq / static_cast<double>(ds.train.size())),
              pre_rmse, 1e-6);
  EXPECT_NEAR(Rmse(model, ds.train, nullptr), pre_rmse, 1e-12);
}

Model InitModel(const Dataset& ds) {
  Model model(ds.num_rows, ds.num_cols, ds.params.k);
  Rng rng(1);
  model.InitRandom(&rng, ComputeStats(ds.train).mean_rating);
  return model;
}

// Rmse adds one partial per 65,536 ratings, in order: 200,000 ratings
// make four partials, whose sum must have the same bits with no pool and
// at every pool size.
void TestRmseSameBitsAtAnyPoolSize() {
  Dataset ds = TinyDataset();
  Model model = InitModel(ds);
  Rng rng(3);
  Ratings ratings(200000);
  for (Rating& r : ratings) {
    r.u = static_cast<int32_t>(rng.UniformInt(ds.num_rows));
    r.v = static_cast<int32_t>(rng.UniformInt(ds.num_cols));
    r.r = 1.0f + 4.0f * rng.NextFloat();
  }
  const double serial = Rmse(model, ratings, nullptr);
  EXPECT_TRUE(serial > 0.0);
  for (size_t threads : {1, 3, 7}) {
    ThreadPool pool(threads);
    EXPECT_EQ(Rmse(model, ratings, &pool), serial);
  }
  // The partials are the runs' frozen SGD sweeps: at learning rate 0 no
  // factor moves, and each sweep returns its run's in-order sum.
  Model frozen = InitModel(ds);
  double sum = 0.0;
  for (size_t lo = 0; lo < ratings.size(); lo += 65536) {
    const size_t hi = std::min(ratings.size(), lo + 65536);
    sum += SgdUpdateBlock(&frozen,
                          Ratings(ratings.begin() + static_cast<long>(lo),
                                  ratings.begin() + static_cast<long>(hi)),
                          SgdHyper{0.0f, 0.0f, 0.0f});
  }
  EXPECT_EQ(serial, std::sqrt(sum / static_cast<double>(ratings.size())));
}

bool SameFactors(const Model& a, const Model& b) {
  const size_t p_bytes = sizeof(float) * a.p_size();
  const size_t q_bytes = sizeof(float) * a.q_size();
  return a.p_size() == b.p_size() && a.q_size() == b.q_size() &&
         std::memcmp(a.p_data(), b.p_data(), p_bytes) == 0 &&
         std::memcmp(a.q_data(), b.q_data(), q_bytes) == 0;
}

// SgdUpdateBlocks against a plain in-order SgdUpdateBlock loop: the
// factors and the returned squared error (the in-order sum of the loop's
// returns) must match bit for bit for every order and pool size.
void TestParallelBlocksMatchSerialOrder() {
  Dataset ds = TinyDataset();
  auto grid = BuildBalancedGrid(ds.train, ds.num_rows, ds.num_cols, 6, 5);
  EXPECT_TRUE(grid.ok());
  if (!grid.ok()) return;
  Rng bucket_rng(2);
  auto matrix = BlockedMatrix::Build(ds.train, *grid, &bucket_rng);
  EXPECT_TRUE(matrix.ok());
  if (!matrix.ok()) return;
  EXPECT_EQ(matrix->num_blocks(), 30);

  std::vector<int> ids(static_cast<size_t>(matrix->num_blocks()));
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<std::vector<int>> orders;
  for (uint64_t seed : {1, 2, 3, 4}) {
    std::vector<int> order = ids;
    Rng rng(seed);
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<size_t>(
                              rng.UniformInt(static_cast<int64_t>(i) + 1))]);
    }
    orders.push_back(order);
  }
  // A GPU pipelines two blocks of its column stripe back to back.
  std::vector<int> pipelined = {grid->BlockIndex(0, 2),
                                grid->BlockIndex(3, 2)};
  for (int b : orders[0]) {
    if (b != pipelined[0] && b != pipelined[1]) pipelined.push_back(b);
  }
  orders.push_back(pipelined);
  // Two sweeps in one list: every block appears twice.
  std::vector<int> twice = orders[1];
  twice.insert(twice.end(), orders[2].begin(), orders[2].end());
  orders.push_back(twice);
  orders.push_back({});

  const SgdHyper hyper{0.01f, 0.05f, 0.05f};
  for (const std::vector<int>& order : orders) {
    Model reference = InitModel(ds);
    double reference_sq_err = 0.0;
    for (int b : order) {
      reference_sq_err +=
          SgdUpdateBlock(&reference, matrix->BlockRatings(b), hyper);
    }
    // Only the empty list leaves the factors as initialized.
    EXPECT_EQ(SameFactors(reference, InitModel(ds)), order.empty());
    EXPECT_EQ(reference_sq_err > 0.0, !order.empty());
    for (int threads : {0, 1, 3, 7}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      Model model = InitModel(ds);
      const double sq_err = SgdUpdateBlocks(&model, *matrix, order, hyper,
                                            nullptr, pool.get());
      EXPECT_TRUE(SameFactors(reference, model));
      EXPECT_EQ(std::memcmp(&sq_err, &reference_sq_err, sizeof(double)), 0);
    }
  }
}

void TestModelInitDeterministic() {
  Model a(50, 40, 8), b(50, 40, 8);
  Rng ra(9), rb(9);
  a.InitRandom(&ra, 3.0);
  b.InitRandom(&rb, 3.0);
  bool same = true;
  for (int32_t u = 0; u < 50; ++u) {
    for (int i = 0; i < 8; ++i) same = same && a.Row(u)[i] == b.Row(u)[i];
  }
  EXPECT_TRUE(same);
  // Mean prediction lands near the requested mean rating.
  double sum = 0.0;
  for (int32_t u = 0; u < 50; ++u) {
    for (int32_t v = 0; v < 40; ++v) sum += a.Predict(u, v);
  }
  EXPECT_NEAR(sum / (50.0 * 40.0), 3.0, 0.5);
}

void TestShuffleAndStats() {
  Ratings r = {{0, 0, 1.0f}, {1, 1, 2.0f}, {2, 2, 3.0f}, {3, 3, 6.0f}};
  RatingStats stats = ComputeStats(r);
  EXPECT_NEAR(stats.mean_rating, 3.0, 1e-9);
  EXPECT_NEAR(stats.min_rating, 1.0, 1e-9);
  EXPECT_NEAR(stats.max_rating, 6.0, 1e-9);

  Rng rng(3);
  Ratings shuffled = r;
  ShuffleRatings(&shuffled, &rng);
  EXPECT_EQ(shuffled.size(), r.size());
  double sum = 0.0;
  for (const Rating& rt : shuffled) sum += rt.r;
  EXPECT_NEAR(sum, 12.0, 1e-9);
}

}  // namespace

void RunAllTests() {
  TestRmseHandComputed();
  TestRmseSameBitsAtAnyPoolSize();
  TestSgdConverges();
  TestSgdReturnsSquaredError();
  TestParallelBlocksMatchSerialOrder();
  TestModelInitDeterministic();
  TestShuffleAndStats();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
