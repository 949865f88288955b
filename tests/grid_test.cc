#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "sched/blocked_matrix.h"
#include "test_main.h"

namespace hsgd {
namespace {

Ratings RandomRatings(int64_t nnz, int32_t rows, int32_t cols,
                      uint64_t seed, bool skewed = false) {
  Rng rng(seed);
  Ratings out;
  out.reserve(static_cast<size_t>(nnz));
  for (int64_t i = 0; i < nnz; ++i) {
    Rating rt;
    if (skewed) {
      // Power-law-ish row popularity: square the uniform draw.
      double x = rng.NextDouble();
      rt.u = static_cast<int32_t>(x * x * rows);
      if (rt.u >= rows) rt.u = rows - 1;
    } else {
      rt.u = static_cast<int32_t>(rng.UniformInt(rows));
    }
    rt.v = static_cast<int32_t>(rng.UniformInt(cols));
    rt.r = rng.NextFloat();
    out.push_back(rt);
  }
  return out;
}

void CheckGridInvariants(const Grid& grid, const Ratings& ratings,
                         int32_t rows, int32_t cols, int p, int q) {
  EXPECT_EQ(grid.num_row_strata(), p);
  EXPECT_EQ(grid.num_col_strata(), q);
  EXPECT_EQ(grid.row_bounds.front(), 0);
  EXPECT_EQ(grid.row_bounds.back(), rows);
  EXPECT_EQ(grid.col_bounds.front(), 0);
  EXPECT_EQ(grid.col_bounds.back(), cols);
  for (size_t i = 1; i < grid.row_bounds.size(); ++i) {
    EXPECT_LT(grid.row_bounds[i - 1], grid.row_bounds[i]);
  }
  for (size_t i = 1; i < grid.col_bounds.size(); ++i) {
    EXPECT_LT(grid.col_bounds[i - 1], grid.col_bounds[i]);
  }
  // Every rating falls in exactly one block (RowOf/ColOf total functions
  // over the index range, and the bounds partition it).
  for (const Rating& rt : ratings) {
    int r = grid.RowOf(rt.u), c = grid.ColOf(rt.v);
    EXPECT_TRUE(r >= 0 && r < p);
    EXPECT_TRUE(c >= 0 && c < q);
    EXPECT_TRUE(grid.row_bounds[r] <= rt.u &&
                rt.u < grid.row_bounds[r + 1]);
    EXPECT_TRUE(grid.col_bounds[c] <= rt.v &&
                rt.v < grid.col_bounds[c + 1]);
  }
}

void TestBalancedGrid() {
  const int32_t rows = 500, cols = 300;
  const int p = 7, q = 5;
  for (bool skewed : {false, true}) {
    Ratings ratings = RandomRatings(30000, rows, cols, 42, skewed);
    auto grid = BuildBalancedGrid(ratings, rows, cols, p, q);
    EXPECT_TRUE(grid.ok());
    CheckGridInvariants(*grid, ratings, rows, cols, p, q);

    // Balance: every row stratum's load is within one heaviest-row of the
    // ideal share (cuts can only fall on row boundaries).
    std::vector<int64_t> row_nnz(static_cast<size_t>(rows), 0);
    for (const Rating& rt : ratings) ++row_nnz[static_cast<size_t>(rt.u)];
    int64_t heaviest = *std::max_element(row_nnz.begin(), row_nnz.end());
    std::vector<int64_t> stratum_nnz(static_cast<size_t>(p), 0);
    for (const Rating& rt : ratings) {
      ++stratum_nnz[static_cast<size_t>(grid->RowOf(rt.u))];
    }
    int64_t ideal = static_cast<int64_t>(ratings.size()) / p;
    for (int s = 0; s < p; ++s) {
      EXPECT_LE(stratum_nnz[static_cast<size_t>(s)], ideal + heaviest + 1);
    }
  }
}

void TestGridErrors() {
  Ratings ratings = RandomRatings(100, 10, 10, 1);
  EXPECT_FALSE(BuildBalancedGrid(ratings, 10, 10, 0, 2).ok());
  EXPECT_FALSE(BuildBalancedGrid(ratings, 10, 10, 11, 2).ok());
  EXPECT_FALSE(BuildBalancedGrid(ratings, 10, 10, 2, 11).ok());
  EXPECT_FALSE(BuildBalancedGrid(ratings, 0, 10, 1, 1).ok());
  Ratings out_of_range = {{12, 0, 1.0f}};
  EXPECT_FALSE(BuildBalancedGrid(out_of_range, 10, 10, 2, 2).ok());
  // Degenerate but legal: a 1x1 grid.
  auto one = BuildBalancedGrid(ratings, 10, 10, 1, 1);
  EXPECT_TRUE(one.ok());
  EXPECT_EQ(one->num_blocks(), 1);
}

void TestColShares() {
  const int32_t rows = 400, cols = 600;
  Ratings ratings = RandomRatings(50000, rows, cols, 7);
  std::vector<double> shares = {0.6, 0.1, 0.1, 0.1, 0.1};
  auto grid = BuildGridWithColShares(ratings, rows, cols, 4, shares);
  EXPECT_TRUE(grid.ok());
  CheckGridInvariants(*grid, ratings, rows, cols, 4, 5);

  std::vector<int64_t> stripe_nnz(shares.size(), 0);
  for (const Rating& rt : ratings) {
    ++stripe_nnz[static_cast<size_t>(grid->ColOf(rt.v))];
  }
  double total = static_cast<double>(ratings.size());
  // Column cuts land on column boundaries, so allow a few percent slack.
  EXPECT_NEAR(stripe_nnz[0] / total, 0.6, 0.05);
  for (size_t s = 1; s < shares.size(); ++s) {
    EXPECT_NEAR(stripe_nnz[s] / total, 0.1, 0.05);
  }

  EXPECT_FALSE(
      BuildGridWithColShares(ratings, rows, cols, 4, {0.5, -0.5}).ok());
  // NaN, infinite shares and finite shares whose sum overflows are
  // refused too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& bad :
       {std::vector<double>{nan, 0.5, 0.5}, std::vector<double>{inf, 0.5, 0.5},
        std::vector<double>{1e308, 1e308, 1e308}}) {
    auto refused = BuildGridWithColShares(ratings, rows, cols, 4, bad);
    EXPECT_TRUE(refused.status().code() == StatusCode::kInvalidArgument);
  }
}

void TestBlockedMatrix() {
  const int32_t rows = 200, cols = 150;
  Ratings ratings = RandomRatings(10000, rows, cols, 3);
  auto grid = BuildBalancedGrid(ratings, rows, cols, 4, 3);
  EXPECT_TRUE(grid.ok());
  Rng rng(5);
  auto matrix = BlockedMatrix::Build(ratings, *grid, &rng);
  EXPECT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->num_blocks(), 12);
  EXPECT_EQ(matrix->total_nnz(), 10000);

  // Conservation: block sizes sum to the input size, and every block's
  // ratings live inside the block's strata.
  int64_t sum = 0;
  for (int b = 0; b < matrix->num_blocks(); ++b) {
    sum += matrix->BlockNnz(b);
    int row = b / 3, col = b % 3;
    for (const Rating& rt : matrix->BlockRatings(b)) {
      EXPECT_TRUE(grid->row_bounds[row] <= rt.u &&
                  rt.u < grid->row_bounds[row + 1]);
      EXPECT_TRUE(grid->col_bounds[col] <= rt.v &&
                  rt.v < grid->col_bounds[col + 1]);
    }
  }
  EXPECT_EQ(sum, 10000);
}

/// Reference stratum of index i: a binary search over the bounds,
/// independent of the grid's lookup tables.
int ReferenceStratum(const std::vector<int32_t>& bounds, int32_t i) {
  return static_cast<int>(std::upper_bound(bounds.begin(), bounds.end(), i) -
                          bounds.begin()) -
         1;
}

/// RowOf/ColOf agree with the reference for every index of the extent.
void ExpectLookupsMatchBounds(const Grid& grid) {
  const int32_t rows = grid.row_bounds.back();
  const int32_t cols = grid.col_bounds.back();
  // Tables that miss part of the extent would make the lookups below
  // read out of range, so their size is checked first.
  EXPECT_EQ(grid.row_stratum.size(), static_cast<size_t>(rows));
  EXPECT_EQ(grid.col_stratum.size(), static_cast<size_t>(cols));
  if (grid.row_stratum.size() != static_cast<size_t>(rows) ||
      grid.col_stratum.size() != static_cast<size_t>(cols)) {
    return;
  }
  int wrong = 0;
  for (int32_t u = 0; u < rows; ++u) {
    wrong += grid.RowOf(u) != ReferenceStratum(grid.row_bounds, u);
  }
  for (int32_t v = 0; v < cols; ++v) {
    wrong += grid.ColOf(v) != ReferenceStratum(grid.col_bounds, v);
  }
  EXPECT_EQ(wrong, 0);
}

void TestLookupsMatchBinarySearch() {
  const int32_t rows = 400, cols = 600;
  Ratings ratings = RandomRatings(20000, rows, cols, 11, /*skewed=*/true);
  std::vector<Grid> grids;
  grids.push_back(*BuildBalancedGrid(ratings, rows, cols, 7, 5));
  grids.push_back(*BuildGridWithColShares(ratings, rows, cols, 4,
                                          {0.3, 0.3, 0.2, 0.1, 0.1}));
  grids.push_back(*BuildBalancedGrid(ratings, rows, cols, 1, 1));
  for (const Grid& built : grids) {
    ExpectLookupsMatchBounds(built);

    Grid grid = built;
    grid.ExtendTo(rows + 37, cols);  // rows only
    EXPECT_EQ(grid.row_bounds.back(), rows + 37);
    EXPECT_EQ(grid.col_bounds.back(), cols);
    ExpectLookupsMatchBounds(grid);
    grid.ExtendTo(rows + 37, cols + 11);  // columns only
    EXPECT_EQ(grid.col_bounds.back(), cols + 11);
    ExpectLookupsMatchBounds(grid);

    grid = built;
    grid.ExtendTo(rows + 5, cols + 3);  // both, twice in a row
    grid.ExtendTo(rows + 9, cols + 8);
    EXPECT_EQ(grid.row_bounds.back(), rows + 9);
    EXPECT_EQ(grid.col_bounds.back(), cols + 8);
    ExpectLookupsMatchBounds(grid);

    // A smaller extent changes nothing.
    const Grid before = grid;
    grid.ExtendTo(rows - 3, cols - 2);
    EXPECT_TRUE(grid.row_bounds == before.row_bounds);
    EXPECT_TRUE(grid.col_bounds == before.col_bounds);
    EXPECT_TRUE(grid.row_stratum == before.row_stratum);
    EXPECT_TRUE(grid.col_stratum == before.col_stratum);
    ExpectLookupsMatchBounds(grid);
  }
}

/// The test's own bucketing: every rating into its reference block,
/// stably, in input order.
std::vector<Ratings> ReferenceBuckets(const Ratings& ratings,
                                      const std::vector<int32_t>& row_bounds,
                                      const std::vector<int32_t>& col_bounds) {
  const int q = static_cast<int>(col_bounds.size()) - 1;
  std::vector<Ratings> buckets((row_bounds.size() - 1) * q);
  for (const Rating& rt : ratings) {
    const int block = ReferenceStratum(row_bounds, rt.u) * q +
                      ReferenceStratum(col_bounds, rt.v);
    buckets[static_cast<size_t>(block)].push_back(rt);
  }
  return buckets;
}

bool SameRatings(const Rating* a, const Rating* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(Rating)) == 0;
}

void ExpectBlocksEqual(const BlockedMatrix& matrix,
                       const std::vector<Ratings>& expected) {
  EXPECT_EQ(static_cast<size_t>(matrix.num_blocks()), expected.size());
  if (static_cast<size_t>(matrix.num_blocks()) != expected.size()) return;
  for (int b = 0; b < matrix.num_blocks(); ++b) {
    const Ratings& got = matrix.BlockRatings(b);
    const Ratings& want = expected[static_cast<size_t>(b)];
    EXPECT_EQ(got.size(), want.size());
    EXPECT_TRUE(got.size() == want.size() &&
                SameRatings(got.data(), want.data(), got.size()));
  }
}

// Build fixes the contents and order of every block, and so every factor
// bit the session trains: it must equal a stable bucketing in input order
// whose buckets are then shuffled in block order from the same seed.
void TestBuildMatchesReferenceBucketing() {
  const int32_t rows = 300, cols = 200;
  const uint64_t seed = 17;
  Ratings ratings = RandomRatings(12000, rows, cols, 5, /*skewed=*/true);
  // Each grid with the block count its builder was asked for.
  std::vector<std::pair<Grid, int>> grids;
  grids.emplace_back(*BuildBalancedGrid(ratings, rows, cols, 5, 4), 5 * 4);
  grids.emplace_back(
      *BuildGridWithColShares(ratings, rows, cols, 6, {0.5, 0.25, 0.25}),
      6 * 3);
  for (const auto& [grid, requested_blocks] : grids) {
    const std::vector<Ratings> buckets =
        ReferenceBuckets(ratings, grid.row_bounds, grid.col_bounds);

    auto unshuffled = BlockedMatrix::Build(ratings, grid, nullptr);
    EXPECT_TRUE(unshuffled.ok());
    if (!unshuffled.ok()) return;
    EXPECT_EQ(unshuffled->num_blocks(), requested_blocks);
    ExpectBlocksEqual(*unshuffled, buckets);

    std::vector<Ratings> shuffled = buckets;
    Rng reference_rng(seed);
    for (Ratings& bucket : shuffled) ShuffleRatings(&bucket, &reference_rng);
    Rng rng(seed);
    auto matrix = BlockedMatrix::Build(ratings, grid, &rng);
    EXPECT_TRUE(matrix.ok());
    if (!matrix.ok()) return;
    ExpectBlocksEqual(*matrix, shuffled);
    EXPECT_EQ(matrix->total_nnz(), static_cast<int64_t>(ratings.size()));
  }
}

// AppendGrown puts arrivals at their blocks' tails in arrival order, cold
// indices in the trailing strata, and marks exactly the blocks it touched.
void TestAppendGrownMatchesReferenceBucketing() {
  const int32_t rows = 300, cols = 200;
  Ratings ratings = RandomRatings(12000, rows, cols, 9);
  auto grid =
      BuildGridWithColShares(ratings, rows, cols, 5, {0.4, 0.2, 0.2, 0.2});
  EXPECT_TRUE(grid.ok());
  if (!grid.ok()) return;
  Rng rng(23);
  auto matrix = BlockedMatrix::Build(ratings, *grid, &rng);
  EXPECT_TRUE(matrix.ok());
  if (!matrix.ok()) return;
  const BlockedMatrix before = *matrix;

  // Warm ratings, cold rows, cold columns and a rating cold in both; a
  // repeated block keeps arrival order observable.
  const int32_t new_rows = rows + 10, new_cols = cols + 6;
  const Ratings appended = {{3, 4, 1.0f},         {rows + 2, 7, 2.0f},
                            {150, cols + 1, 3.0f}, {rows + 9, cols + 5, 4.0f},
                            {4, 5, 5.0f},          {rows, 0, 6.0f}};
  std::vector<uint8_t> dirty;
  EXPECT_TRUE(matrix->AppendGrown(appended, new_rows, new_cols, &dirty).ok());

  std::vector<int32_t> grown_rows = grid->row_bounds;
  std::vector<int32_t> grown_cols = grid->col_bounds;
  grown_rows.back() = new_rows;
  grown_cols.back() = new_cols;
  const std::vector<Ratings> tails =
      ReferenceBuckets(appended, grown_rows, grown_cols);
  std::vector<Ratings> expected(tails.size());
  for (size_t b = 0; b < expected.size(); ++b) {
    expected[b] = before.BlockRatings(static_cast<int>(b));
    expected[b].insert(expected[b].end(), tails[b].begin(), tails[b].end());
  }
  ExpectBlocksEqual(*matrix, expected);
  EXPECT_EQ(matrix->total_nnz(),
            static_cast<int64_t>(ratings.size() + appended.size()));
  EXPECT_TRUE(matrix->grid().row_bounds == grown_rows);
  EXPECT_TRUE(matrix->grid().col_bounds == grown_cols);
  ExpectLookupsMatchBounds(matrix->grid());

  // Cold indices sit in the trailing row stratum / column stripe.
  const int p = grid->num_row_strata(), q = grid->num_col_strata();
  for (int b = 0; b < matrix->num_blocks(); ++b) {
    const Ratings& block = matrix->BlockRatings(b);
    for (size_t i = static_cast<size_t>(before.BlockNnz(b));
         i < block.size(); ++i) {
      if (block[i].u >= rows) EXPECT_EQ(b / q, p - 1);
      if (block[i].v >= cols) EXPECT_EQ(b % q, q - 1);
    }
  }

  EXPECT_EQ(dirty.size(), static_cast<size_t>(matrix->num_blocks()));
  int dirty_blocks = 0;
  for (size_t b = 0; b < dirty.size() && b < tails.size(); ++b) {
    EXPECT_EQ(dirty[b] != 0, !tails[b].empty());
    dirty_blocks += dirty[b] != 0;
  }
  EXPECT_LT(0, dirty_blocks);
  EXPECT_LT(dirty_blocks, matrix->num_blocks());
}

}  // namespace

void RunAllTests() {
  TestBalancedGrid();
  TestGridErrors();
  TestColShares();
  TestBlockedMatrix();
  TestLookupsMatchBinarySearch();
  TestBuildMatchesReferenceBucketing();
  TestAppendGrownMatchesReferenceBucketing();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
