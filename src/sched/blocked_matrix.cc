#include "sched/blocked_matrix.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"
#include "util/strings.h"

namespace hsgd {

namespace {

/// Cuts [0, dim) into bounds so that segment i ends where the cumulative
/// histogram mass first reaches cum_targets[i]. Bounds are forced strictly
/// increasing and to leave room for the remaining segments, so the result
/// is always a partition into non-empty index ranges. Works off an
/// explicit prefix-sum so a clamped cut never desynchronizes the mass
/// accounting for later segments.
std::vector<int32_t> CutByMass(const std::vector<int64_t>& histogram,
                               const std::vector<double>& cum_targets) {
  const int32_t dim = static_cast<int32_t>(histogram.size());
  const int segments = static_cast<int>(cum_targets.size());
  std::vector<int64_t> prefix(static_cast<size_t>(dim) + 1, 0);
  for (int32_t i = 0; i < dim; ++i) {
    prefix[static_cast<size_t>(i) + 1] =
        prefix[static_cast<size_t>(i)] + histogram[static_cast<size_t>(i)];
  }
  std::vector<int32_t> bounds;
  bounds.reserve(segments + 1);
  bounds.push_back(0);
  for (int s = 0; s < segments - 1; ++s) {
    const double target = cum_targets[s];
    // Smallest cut whose prefix mass reaches the target.
    auto it = std::lower_bound(prefix.begin(), prefix.end(), target,
                               [](int64_t mass, double t) {
                                 return static_cast<double>(mass) < t;
                               });
    int32_t cut = static_cast<int32_t>(it - prefix.begin());
    cut = std::max(cut, bounds.back() + 1);
    // Leave at least one index for each remaining segment.
    cut = std::min(cut, dim - static_cast<int32_t>(segments - 1 - s));
    bounds.push_back(cut);
  }
  bounds.push_back(dim);
  return bounds;
}

Status ValidateGridArgs(const Ratings& ratings, int64_t num_rows,
                        int64_t num_cols, int p, int q) {
  if (num_rows <= 0 || num_cols <= 0) {
    return Status::InvalidArgument("grid needs positive matrix dims");
  }
  if (p < 1 || q < 1) {
    return Status::InvalidArgument(
        StrFormat("grid needs at least 1x1 strata, got %dx%d", p, q));
  }
  if (p > num_rows || q > num_cols) {
    return Status::InvalidArgument(
        StrFormat("grid %dx%d exceeds matrix dims %lldx%lld", p, q,
                  static_cast<long long>(num_rows),
                  static_cast<long long>(num_cols)));
  }
  for (const Rating& rt : ratings) {
    if (rt.u < 0 || rt.u >= num_rows || rt.v < 0 || rt.v >= num_cols) {
      return Status::InvalidArgument(
          StrFormat("rating (%d, %d) outside matrix %lldx%lld", rt.u, rt.v,
                    static_cast<long long>(num_rows),
                    static_cast<long long>(num_cols)));
    }
  }
  return Status::Ok();
}

/// Index -> segment table over [0, bounds.back()).
std::vector<int32_t> StratumTable(const std::vector<int32_t>& bounds) {
  std::vector<int32_t> table(static_cast<size_t>(bounds.back()));
  for (size_t s = 0; s + 1 < bounds.size(); ++s) {
    std::fill(table.begin() + bounds[s], table.begin() + bounds[s + 1],
              static_cast<int32_t>(s));
  }
  return table;
}

/// Assembles a grid from its cuts; the one place the lookup tables are
/// filled.
Grid MakeGrid(std::vector<int32_t> row_bounds,
              std::vector<int32_t> col_bounds) {
  Grid grid;
  grid.row_stratum = StratumTable(row_bounds);
  grid.col_stratum = StratumTable(col_bounds);
  grid.row_bounds = std::move(row_bounds);
  grid.col_bounds = std::move(col_bounds);
  return grid;
}

}  // namespace

void Grid::ExtendTo(int32_t num_rows, int32_t num_cols) {
  HSGD_CHECK(!row_bounds.empty() && !col_bounds.empty());
  if (num_rows > row_bounds.back()) {
    row_bounds.back() = num_rows;
    row_stratum.resize(static_cast<size_t>(num_rows), num_row_strata() - 1);
  }
  if (num_cols > col_bounds.back()) {
    col_bounds.back() = num_cols;
    col_stratum.resize(static_cast<size_t>(num_cols), num_col_strata() - 1);
  }
}

StatusOr<Grid> BuildBalancedGrid(const Ratings& ratings, int64_t num_rows,
                                 int64_t num_cols, int p, int q) {
  std::vector<double> row_shares(p, 1.0 / p);
  std::vector<double> col_shares(q, 1.0 / q);
  HSGD_RETURN_IF_ERROR(ValidateGridArgs(ratings, num_rows, num_cols, p, q));

  std::vector<int64_t> row_hist(static_cast<size_t>(num_rows), 0);
  std::vector<int64_t> col_hist(static_cast<size_t>(num_cols), 0);
  for (const Rating& rt : ratings) {
    ++row_hist[static_cast<size_t>(rt.u)];
    ++col_hist[static_cast<size_t>(rt.v)];
  }
  const double total = static_cast<double>(ratings.size());

  auto cum_targets = [&](const std::vector<double>& shares) {
    std::vector<double> cum(shares.size());
    double acc = 0.0;
    for (size_t i = 0; i < shares.size(); ++i) {
      acc += shares[i];
      cum[i] = acc * total;
    }
    return cum;
  };

  return MakeGrid(CutByMass(row_hist, cum_targets(row_shares)),
                  CutByMass(col_hist, cum_targets(col_shares)));
}

StatusOr<Grid> BuildGridWithColShares(
    const Ratings& ratings, int64_t num_rows, int64_t num_cols, int p,
    const std::vector<double>& col_shares) {
  const int q = static_cast<int>(col_shares.size());
  HSGD_RETURN_IF_ERROR(ValidateGridArgs(ratings, num_rows, num_cols, p, q));
  // `!(s > 0.0)` also refuses NaN; an infinite share, or finite ones
  // whose sum overflows, would normalise every other share to zero.
  double share_sum = 0.0;
  for (double s : col_shares) {
    share_sum += s;
    if (!(s > 0.0) || !std::isfinite(share_sum)) {
      return Status::InvalidArgument(
          "column shares must be positive with a finite sum");
    }
  }

  std::vector<int64_t> row_hist(static_cast<size_t>(num_rows), 0);
  std::vector<int64_t> col_hist(static_cast<size_t>(num_cols), 0);
  for (const Rating& rt : ratings) {
    ++row_hist[static_cast<size_t>(rt.u)];
    ++col_hist[static_cast<size_t>(rt.v)];
  }
  const double total = static_cast<double>(ratings.size());

  std::vector<double> row_cum(p);
  for (int i = 0; i < p; ++i) row_cum[i] = total * (i + 1) / p;
  std::vector<double> col_cum(q);
  double acc = 0.0;
  for (int i = 0; i < q; ++i) {
    acc += col_shares[i] / share_sum;
    col_cum[i] = acc * total;
  }

  return MakeGrid(CutByMass(row_hist, row_cum), CutByMass(col_hist, col_cum));
}

StatusOr<BlockedMatrix> BlockedMatrix::Build(const Ratings& ratings,
                                             const Grid& grid, Rng* rng) {
  if (grid.num_row_strata() < 1 || grid.num_col_strata() < 1) {
    return Status::InvalidArgument("grid has no strata");
  }
  BlockedMatrix bm;
  bm.grid_ = grid;
  bm.blocks_.assign(static_cast<size_t>(grid.num_blocks()), Ratings());

  // Counting pass sizes each bucket exactly (millions of ratings; avoids
  // vector regrowth churn).
  std::vector<int64_t> counts(bm.blocks_.size(), 0);
  const int32_t max_row = grid.row_bounds.back();
  const int32_t max_col = grid.col_bounds.back();
  for (const Rating& rt : ratings) {
    if (rt.u < 0 || rt.u >= max_row || rt.v < 0 || rt.v >= max_col) {
      return Status::InvalidArgument(
          StrFormat("rating (%d, %d) outside grid extent %dx%d", rt.u,
                    rt.v, max_row, max_col));
    }
    ++counts[static_cast<size_t>(
        grid.BlockIndex(grid.RowOf(rt.u), grid.ColOf(rt.v)))];
  }
  for (size_t b = 0; b < bm.blocks_.size(); ++b) {
    bm.blocks_[b].reserve(static_cast<size_t>(counts[b]));
  }
  for (const Rating& rt : ratings) {
    bm.blocks_[static_cast<size_t>(grid.BlockIndex(
                   grid.RowOf(rt.u), grid.ColOf(rt.v)))]
        .push_back(rt);
  }
  if (rng != nullptr) {
    for (Ratings& block : bm.blocks_) ShuffleRatings(&block, rng);
  }
  bm.total_nnz_ = static_cast<int64_t>(ratings.size());
  return bm;
}

Status BlockedMatrix::AppendGrown(const Ratings& ratings, int32_t new_rows,
                                  int32_t new_cols,
                                  std::vector<uint8_t>* dirty) {
  if (blocks_.empty()) {
    return Status::FailedPrecondition("append into an unbuilt matrix");
  }
  if (new_rows < grid_.row_bounds.back() ||
      new_cols < grid_.col_bounds.back()) {
    return Status::InvalidArgument(
        StrFormat("append cannot shrink grid extent %dx%d to %dx%d",
                  grid_.row_bounds.back(), grid_.col_bounds.back(),
                  new_rows, new_cols));
  }
  // Validate before mutating: a bad rating must not leave the grid
  // half-extended or some blocks appended.
  for (const Rating& rt : ratings) {
    if (rt.u < 0 || rt.u >= new_rows || rt.v < 0 || rt.v >= new_cols) {
      return Status::InvalidArgument(
          StrFormat("appended rating (%d, %d) outside grown extent %dx%d",
                    rt.u, rt.v, new_rows, new_cols));
    }
  }
  grid_.ExtendTo(new_rows, new_cols);
  if (dirty != nullptr &&
      dirty->size() < static_cast<size_t>(num_blocks())) {
    dirty->resize(static_cast<size_t>(num_blocks()), 0);
  }
  // Appends land at block tails in arrival order (no shuffle): an
  // incremental pass visits fresh ratings last, after the block's settled
  // prefix, which is the recency order an online update wants.
  for (const Rating& rt : ratings) {
    const int block = grid_.BlockIndex(grid_.RowOf(rt.u), grid_.ColOf(rt.v));
    blocks_[static_cast<size_t>(block)].push_back(rt);
    if (dirty != nullptr) (*dirty)[static_cast<size_t>(block)] = 1;
  }
  total_nnz_ += static_cast<int64_t>(ratings.size());
  return Status::Ok();
}

StatusOr<BlockBuckets> BucketByBlock(const Ratings& ratings,
                                     const Grid& grid) {
  if (ratings.size() > static_cast<size_t>(INT32_MAX)) {
    return Status::InvalidArgument(
        StrFormat("cannot bucket %zu ratings by position", ratings.size()));
  }
  const int32_t max_row = grid.row_bounds.back();
  const int32_t max_col = grid.col_bounds.back();
  auto block_of = [&grid](const Rating& rt) {
    return static_cast<size_t>(
        grid.BlockIndex(grid.RowOf(rt.u), grid.ColOf(rt.v)));
  };
  // A counting sort, as Build buckets: count each block's ratings, then
  // fill each bucket's positions from its start in list order.
  BlockBuckets buckets;
  buckets.offsets.assign(static_cast<size_t>(grid.num_blocks()) + 1, 0);
  for (const Rating& rt : ratings) {
    if (rt.u < 0 || rt.u >= max_row || rt.v < 0 || rt.v >= max_col) {
      return Status::InvalidArgument(
          StrFormat("rating (%d, %d) outside grid extent %dx%d", rt.u, rt.v,
                    max_row, max_col));
    }
    ++buckets.offsets[block_of(rt) + 1];
  }
  for (size_t b = 1; b < buckets.offsets.size(); ++b) {
    buckets.offsets[b] += buckets.offsets[b - 1];
  }
  std::vector<int64_t> next(buckets.offsets.begin(),
                            buckets.offsets.end() - 1);
  buckets.positions.resize(ratings.size());
  for (size_t i = 0; i < ratings.size(); ++i) {
    buckets.positions[static_cast<size_t>(next[block_of(ratings[i])]++)] =
        static_cast<int32_t>(i);
  }
  // The copies are gathered in bucket order: each is written once, in
  // order, into storage that is not zeroed first.
  buckets.ratings.reserve(ratings.size());
  for (const int32_t at : buckets.positions) {
    buckets.ratings.push_back(ratings[static_cast<size_t>(at)]);
  }
  return buckets;
}

}  // namespace hsgd
