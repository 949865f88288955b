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

Model CopyModel(const Model& model) {
  Model copy(model.num_rows(), model.num_cols(), model.k());
  std::memcpy(copy.p_data(), model.p_data(), sizeof(float) * model.p_size());
  std::memcpy(copy.q_data(), model.q_data(), sizeof(float) * model.q_size());
  return copy;
}

Ratings RandomRatings(size_t n, int32_t rows, int32_t cols, uint64_t seed) {
  Rng rng(seed);
  Ratings ratings(n);
  for (Rating& r : ratings) {
    r.u = static_cast<int32_t>(rng.UniformInt(rows));
    r.v = static_cast<int32_t>(rng.UniformInt(cols));
    r.r = 1.0f + 4.0f * rng.NextFloat();
  }
  return ratings;
}

// SgdUpdateBlocks with an evaluation set against the serial reference:
// every block in list order, then r - dot(p_u, q_v) per evaluated rating
// on the final model. The errors must match bit for bit (memcmp), their
// fold must equal the list-order Rmse (==), and the factors and squared
// error must stay what they are without evaluation, at every pool size.
void ExpectEvaluationMatchesSerial(const std::vector<int>& order,
                                   const BlockedMatrix& matrix,
                                   const Model& init, const Ratings& eval,
                                   const BlockBuckets& buckets) {
  const SgdHyper hyper{0.01f, 0.05f, 0.05f};
  Model reference = CopyModel(init);
  double reference_sq_err = 0.0;
  for (int b : order) {
    reference_sq_err +=
        SgdUpdateBlock(&reference, matrix.BlockRatings(b), hyper);
  }
  std::vector<float> reference_errors(eval.size());
  for (size_t i = 0; i < eval.size(); ++i) {
    reference_errors[i] = eval[i].r - reference.Predict(eval[i].u, eval[i].v);
  }
  const double reference_rmse = Rmse(reference, eval, nullptr);
  for (int threads : {0, 1, 3, 7}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    Model model = CopyModel(init);
    std::vector<float> errors(eval.size(), -1.0f);
    EvalSet set;
    set.buckets = &buckets;
    set.errors = errors.data();
    const double sq_err = SgdUpdateBlocks(&model, matrix, order, hyper,
                                          nullptr, pool.get(), &set);
    EXPECT_TRUE(SameFactors(reference, model));
    EXPECT_EQ(std::memcmp(&sq_err, &reference_sq_err, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(errors.data(), reference_errors.data(),
                          sizeof(float) * errors.size()),
              0);
    EXPECT_EQ(RmseOfErrors(errors.data(),
                           static_cast<int64_t>(errors.size()), pool.get()),
              reference_rmse);
  }
}

void TestEvaluationOnLanesMatchesSerial() {
  Dataset ds = TinyDataset();
  auto grid = BuildBalancedGrid(ds.train, ds.num_rows, ds.num_cols, 6, 5);
  EXPECT_TRUE(grid.ok());
  if (!grid.ok()) return;
  Rng bucket_rng(2);
  auto matrix = BlockedMatrix::Build(ds.train, *grid, &bucket_rng);
  EXPECT_TRUE(matrix.ok());
  if (!matrix.ok()) return;
  // 150,000 ratings: two 65,536-rating runs and a partial one in the
  // fold, and about 5,000 per bucket, so a bucket splits into tasks.
  const Ratings eval =
      RandomRatings(150000, ds.num_rows, ds.num_cols, /*seed=*/8);
  auto buckets = BucketByBlock(eval, *grid);
  EXPECT_TRUE(buckets.ok());
  if (!buckets.ok()) return;
  // Each bucket holds its block's ratings, copied in list order.
  EXPECT_EQ(buckets->offsets.size(), 31u);
  EXPECT_EQ(buckets->positions.size(), eval.size());
  EXPECT_EQ(buckets->ratings.size(), eval.size());
  bool bucketed = buckets->offsets.back() ==
                  static_cast<int64_t>(eval.size());
  for (int b = 0; b < grid->num_blocks(); ++b) {
    for (int64_t i = buckets->offsets[b]; i < buckets->offsets[b + 1]; ++i) {
      const int32_t at = buckets->positions[static_cast<size_t>(i)];
      const Rating& copy = buckets->ratings[static_cast<size_t>(i)];
      const Rating& rt = eval[static_cast<size_t>(at)];
      bucketed = bucketed && copy.u == rt.u && copy.v == rt.v &&
                 copy.r == rt.r &&
                 grid->BlockIndex(grid->RowOf(rt.u), grid->ColOf(rt.v)) == b &&
                 (i == buckets->offsets[b] ||
                  buckets->positions[static_cast<size_t>(i) - 1] < at);
    }
  }
  EXPECT_TRUE(bucketed);
  const Model init = InitModel(ds);

  std::vector<int> ids(static_cast<size_t>(matrix->num_blocks()));
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<std::vector<int>> orders;
  for (uint64_t seed : {5, 6, 7}) {
    std::vector<int> order = ids;
    Rng rng(seed);
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<size_t>(
                              rng.UniformInt(static_cast<int64_t>(i) + 1))]);
    }
    orders.push_back(order);
  }
  // A dirty subset: row strata 3-5 and column stratum 4 hold no listed
  // block, so every bucket in them is final from the start, while the
  // buckets of rows 3-5 in columns 0-3 wait for their column strata.
  std::vector<int> subset;
  for (int b : orders[0]) {
    if (b / 5 < 3 && b % 5 < 4) subset.push_back(b);
  }
  orders.push_back(subset);
  // Every block twice, and a block repeated back to back.
  std::vector<int> twice = orders[1];
  twice.insert(twice.end(), orders[2].begin(), orders[2].end());
  const int repeated = twice[10];
  twice.insert(twice.begin() + 10, repeated);
  orders.push_back(twice);
  orders.push_back({});

  for (const std::vector<int>& order : orders) {
    ExpectEvaluationMatchesSerial(order, *matrix, init, eval, *buckets);
  }
}

// The buckets outlive growth: after AppendGrown widens the trailing
// strata, the buckets built before it are the ones a fresh bucketing of
// the grown grid gives, and they evaluate a list with ratings in the
// trailing strata, including grown rows and columns, exactly.
void TestEvaluationAfterAppendGrown() {
  Dataset ds = TinyDataset();
  auto grid = BuildBalancedGrid(ds.train, ds.num_rows, ds.num_cols, 6, 5);
  EXPECT_TRUE(grid.ok());
  if (!grid.ok()) return;
  Rng bucket_rng(2);
  auto matrix = BlockedMatrix::Build(ds.train, *grid, &bucket_rng);
  EXPECT_TRUE(matrix.ok());
  if (!matrix.ok()) return;
  Ratings eval = RandomRatings(20000, ds.num_rows, ds.num_cols, 9);
  const int32_t last_row = ds.num_rows - 1;
  const int32_t last_col = ds.num_cols - 1;
  eval.push_back({last_row, last_col, 3.0f});
  eval.push_back({last_row, 0, 2.0f});
  auto buckets = BucketByBlock(eval, *grid);
  EXPECT_TRUE(buckets.ok());
  if (!buckets.ok()) return;
  const int trailing =
      grid->BlockIndex(grid->num_row_strata() - 1, grid->num_col_strata() - 1);
  const std::vector<int32_t> trailing_bucket(
      buckets->positions.begin() + buckets->offsets[trailing],
      buckets->positions.begin() + buckets->offsets[trailing + 1]);
  EXPECT_TRUE(std::find(trailing_bucket.begin(), trailing_bucket.end(),
                        static_cast<int32_t>(eval.size()) - 2) !=
              trailing_bucket.end());

  // Warm and cold ratings; the cold ones grow 20 rows and 10 columns.
  const int32_t rows = ds.num_rows + 20;
  const int32_t cols = ds.num_cols + 10;
  Ratings appended = RandomRatings(600, ds.num_rows, ds.num_cols, 10);
  for (int32_t i = 0; i < 20; ++i) {
    appended.push_back({ds.num_rows + i, i % ds.num_cols, 4.0f});
    appended.push_back({i, ds.num_cols + i % 10, 1.5f});
  }
  std::vector<uint8_t> dirty;
  EXPECT_TRUE(matrix->AppendGrown(appended, rows, cols, &dirty).ok());
  auto rebucketed = BucketByBlock(eval, matrix->grid());
  EXPECT_TRUE(rebucketed.ok());
  if (!rebucketed.ok()) return;
  EXPECT_TRUE(rebucketed->offsets == buckets->offsets);
  EXPECT_TRUE(rebucketed->positions == buckets->positions);

  Model init = InitModel(ds);
  Rng growth_rng(29);
  init.Grow(rows, cols, &growth_rng, 3.0);
  std::vector<int> dirty_blocks;
  for (size_t b = 0; b < dirty.size(); ++b) {
    if (dirty[b] != 0) dirty_blocks.push_back(static_cast<int>(b));
  }
  EXPECT_TRUE(std::find(dirty_blocks.begin(), dirty_blocks.end(),
                        trailing) != dirty_blocks.end());
  std::vector<int> all(static_cast<size_t>(matrix->num_blocks()));
  std::iota(all.begin(), all.end(), 0);
  for (const std::vector<int>& order : {dirty_blocks, all}) {
    ExpectEvaluationMatchesSerial(order, *matrix, init, eval, *buckets);
  }
  // Ratings on the grown rows and columns, bucketed on the grown grid.
  Ratings grown_eval = RandomRatings(3000, rows, cols, 11);
  grown_eval.push_back({rows - 1, cols - 1, 2.5f});
  auto grown_buckets = BucketByBlock(grown_eval, matrix->grid());
  EXPECT_TRUE(grown_buckets.ok());
  if (!grown_buckets.ok()) return;
  ExpectEvaluationMatchesSerial(dirty_blocks, *matrix, init, grown_eval,
                                *grown_buckets);
  // A rating past the grid's extent is refused.
  const Ratings outside = {Rating{rows, 0, 1.0f}};
  EXPECT_FALSE(BucketByBlock(outside, matrix->grid()).ok());
}

/// TinyDataset's ratings on its 6 x 5 balanced grid, plus 200,000 more in
/// block (1, 0), so a list that sweeps that block again and again is a
/// dependency chain long enough for the pool's lanes to join and find no
/// block ready.
StatusOr<BlockedMatrix> ChainMatrix(const Dataset& ds) {
  auto grid = BuildBalancedGrid(ds.train, ds.num_rows, ds.num_cols, 6, 5);
  if (!grid.ok()) return grid.status();
  // Block (1, 0) spans row stratum 1 and column stratum 0.
  const int32_t rows = grid->RowStratumWidth(1);
  const int32_t cols = grid->ColStratumWidth(0);
  Ratings train = ds.train;
  Rng rng(12);
  for (int i = 0; i < 200000; ++i) {
    const int32_t u =
        grid->row_bounds[1] + static_cast<int32_t>(rng.UniformInt(rows));
    const int32_t v = static_cast<int32_t>(rng.UniformInt(cols));
    train.push_back({u, v, 1.0f + 4.0f * rng.NextFloat()});
  }
  Rng bucket_rng(2);
  return BlockedMatrix::Build(train, *grid, &bucket_rng);
}

/// Block (0, 0), then six sweeps of ChainMatrix's block (1, 0).
std::vector<int> ChainOrder(const Grid& grid) {
  std::vector<int> order = {grid.BlockIndex(0, 0)};
  order.insert(order.end(), 6, grid.BlockIndex(1, 0));
  return order;
}

// A bucket is final only when both of its strata have no listed block
// left, counted when a block's sweep completes. The list is ChainOrder:
// the pool's lanes join during the first sweeps of block (1, 0) and then
// wait, idle, since the chain leaves no other block. So a bucket of
// column stratum 0 released early (when its row stratum is clear, or
// when the last sweep is taken rather than finished) is evaluated over
// columns (1, 0) still updates, and its errors differ from the serial
// reference's.
void TestEvaluationWaitsForBothStrata() {
  Dataset ds = TinyDataset();
  auto matrix = ChainMatrix(ds);
  EXPECT_TRUE(matrix.ok());
  if (!matrix.ok()) return;
  const Ratings eval =
      RandomRatings(30000, ds.num_rows, ds.num_cols, /*seed=*/14);
  auto buckets = BucketByBlock(eval, matrix->grid());
  EXPECT_TRUE(buckets.ok());
  if (!buckets.ok()) return;
  ExpectEvaluationMatchesSerial(ChainOrder(matrix->grid()), *matrix,
                                InitModel(ds), eval, *buckets);
}

// The side task runs exactly once per call, whether a pool lane takes it
// while the chain keeps the others idle or the caller runs it (no pool,
// or no block), and it changes no bit: the factors, the squared error
// and the errors memcmp-equal the same call without it. The lists: a
// shuffled full sweep, ChainOrder, the committed prefix a failed epoch
// sweeps (which Session passes with no EvalSet), and an empty list.
void TestSideTaskRunsOnceAndChangesNoBit() {
  Dataset ds = TinyDataset();
  auto matrix = ChainMatrix(ds);
  EXPECT_TRUE(matrix.ok());
  if (!matrix.ok()) return;
  const Ratings eval =
      RandomRatings(30000, ds.num_rows, ds.num_cols, /*seed=*/15);
  auto buckets = BucketByBlock(eval, matrix->grid());
  EXPECT_TRUE(buckets.ok());
  if (!buckets.ok()) return;
  std::vector<int> shuffled(static_cast<size_t>(matrix->num_blocks()));
  std::iota(shuffled.begin(), shuffled.end(), 0);
  Rng rng(16);
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[static_cast<size_t>(
                               rng.UniformInt(static_cast<int64_t>(i) + 1))]);
  }
  const std::vector<int> failed_prefix(shuffled.begin(),
                                       shuffled.begin() + 11);
  const Model init = InitModel(ds);
  const SgdHyper hyper{0.01f, 0.05f, 0.05f};
  for (const std::vector<int>& order :
       {shuffled, ChainOrder(matrix->grid()), failed_prefix,
        std::vector<int>{}}) {
    for (const bool evaluate : {true, false}) {
      for (int threads : {0, 1, 3, 7}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
        Model plain = CopyModel(init);
        Model tasked = CopyModel(init);
        std::vector<float> plain_errors(eval.size(), -1.0f);
        std::vector<float> tasked_errors(eval.size(), -1.0f);
        EvalSet plain_set{&*buckets, plain_errors.data()};
        EvalSet tasked_set{&*buckets, tasked_errors.data()};
        const double plain_sq_err =
            SgdUpdateBlocks(&plain, *matrix, order, hyper, nullptr,
                            pool.get(), evaluate ? &plain_set : nullptr);
        int runs = 0;
        const double tasked_sq_err = SgdUpdateBlocks(
            &tasked, *matrix, order, hyper, nullptr, pool.get(),
            evaluate ? &tasked_set : nullptr, [&runs] { ++runs; });
        EXPECT_EQ(runs, 1);
        EXPECT_TRUE(SameFactors(plain, tasked));
        EXPECT_EQ(
            std::memcmp(&plain_sq_err, &tasked_sq_err, sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(plain_errors.data(), tasked_errors.data(),
                              sizeof(float) * eval.size()),
                  0);
      }
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
  TestEvaluationOnLanesMatchesSerial();
  TestEvaluationAfterAppendGrown();
  TestEvaluationWaitsForBothStrata();
  TestSideTaskRunsOnceAndChangesNoBit();
  TestModelInitDeterministic();
  TestShuffleAndStats();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
