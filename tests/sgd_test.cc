#include <cmath>

#include "core/dataset.h"
#include "core/model.h"
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

  // Pool evaluation must agree bit-for-bit with serial.
  ThreadPool pool(3);
  EXPECT_EQ(Rmse(model, ratings, &pool), Rmse(model, ratings, nullptr));
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
  TestSgdConverges();
  TestSgdReturnsSquaredError();
  TestModelInitDeterministic();
  TestShuffleAndStats();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
