// Block division of the rating matrix (Section IV): a Grid of row/column
// stratum boundaries, balanced-load cut construction, and the
// BlockedMatrix that buckets the training ratings into grid cells.
//
// Idiom follows the classic 2D-tiled SGD executors (DSGD, Galois'
// Fixed2DTiledExecutor): tasks are (row stratum x column stratum) tiles,
// and two tasks may run concurrently iff they share neither stratum.

#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "util/rng.h"
#include "util/status.h"

namespace hsgd {

struct Grid {
  /// Stratum boundaries: row stratum i covers [row_bounds[i],
  /// row_bounds[i+1]); strictly increasing, covering [0, num_rows).
  std::vector<int32_t> row_bounds;
  std::vector<int32_t> col_bounds;
  /// Dense lookup tables derived from the bounds: row_stratum[u] is the
  /// stratum of row u, one entry per row of the extent (likewise
  /// col_stratum per column). The grid builders fill them and ExtendTo
  /// keeps them covering the extent.
  std::vector<int32_t> row_stratum;
  std::vector<int32_t> col_stratum;

  int num_row_strata() const {
    return static_cast<int>(row_bounds.size()) - 1;
  }
  int num_col_strata() const {
    return static_cast<int>(col_bounds.size()) - 1;
  }
  int num_blocks() const { return num_row_strata() * num_col_strata(); }
  int BlockIndex(int row, int col) const {
    return row * num_col_strata() + col;
  }
  int32_t RowStratumWidth(int row) const {
    return row_bounds[row + 1] - row_bounds[row];
  }
  int32_t ColStratumWidth(int col) const {
    return col_bounds[col + 1] - col_bounds[col];
  }

  /// Stratum containing row index u / column index v (table lookup); the
  /// index must lie inside the extent.
  int RowOf(int32_t u) const { return row_stratum[static_cast<size_t>(u)]; }
  int ColOf(int32_t v) const { return col_stratum[static_cast<size_t>(v)]; }

  /// Extend the grid extent to cover `num_rows` x `num_cols` by widening
  /// the LAST row/column stratum. The strata counts — and therefore every
  /// BlockIndex — are unchanged, so schedulers sized off this grid stay
  /// valid; new (cold) indices all land in the trailing stratum. A
  /// smaller extent leaves the grid as it is.
  void ExtendTo(int32_t num_rows, int32_t num_cols);
};

/// Equal-load p x q grid: cuts are placed on the nnz mass so every row
/// stratum carries ~1/p of the ratings and every column stratum ~1/q
/// (within one row/column of slack, since cuts fall on index boundaries).
StatusOr<Grid> BuildBalancedGrid(const Ratings& ratings, int64_t num_rows,
                                 int64_t num_cols, int p, int q);

/// Nonuniform column division for HSGD*: `col_shares` gives each column
/// stripe's share of the nnz mass (normalized internally); rows still get
/// `p` equal-load strata.
StatusOr<Grid> BuildGridWithColShares(const Ratings& ratings,
                                      int64_t num_rows, int64_t num_cols,
                                      int p,
                                      const std::vector<double>& col_shares);

class BlockedMatrix {
 public:
  BlockedMatrix() = default;

  /// Bucket `ratings` into the grid's cells; each block's ratings are
  /// shuffled with `rng` (SGD visits entries in random order within a
  /// block). `rng` may be null to keep insertion order.
  static StatusOr<BlockedMatrix> Build(const Ratings& ratings,
                                       const Grid& grid, Rng* rng);

  /// Online-append path: extend the grid to cover `new_rows` x `new_cols`
  /// (trailing-stratum growth; block count is invariant), then bucket
  /// `ratings` onto the existing blocks' tails in arrival order. Marks
  /// each block that received ratings in `dirty` (sized/indexed by block;
  /// grown to num_blocks() if shorter). Fails without mutating anything
  /// if a rating falls outside the grown extent.
  Status AppendGrown(const Ratings& ratings, int32_t new_rows,
                     int32_t new_cols, std::vector<uint8_t>* dirty);

  int num_blocks() const { return static_cast<int>(blocks_.size()); }
  const Ratings& BlockRatings(int block) const { return blocks_[block]; }
  int64_t BlockNnz(int block) const {
    return static_cast<int64_t>(blocks_[block].size());
  }
  int64_t total_nnz() const { return total_nnz_; }
  const Grid& grid() const { return grid_; }

 private:
  Grid grid_;
  std::vector<Ratings> blocks_;
  int64_t total_nnz_ = 0;
};

/// A rating list grouped by the grid block each rating falls in: bucket b
/// is entries [offsets[b], offsets[b + 1]), in list order. Entry i holds
/// a copy of the rating at list position positions[i], so a bucket's
/// ratings are read in one run, and its results can still be written to
/// the ratings' list positions.
struct BlockBuckets {
  std::vector<int64_t> offsets;
  std::vector<int32_t> positions;
  Ratings ratings;
};

/// Bucket `ratings` (at most INT32_MAX of them) by the blocks of `grid`.
/// The buckets stay valid while the grid only grows: ExtendTo widens the
/// trailing strata and never moves a row or column to another stratum.
/// Fails if a rating lies outside the grid's extent.
StatusOr<BlockBuckets> BucketByBlock(const Ratings& ratings,
                                     const Grid& grid);

}  // namespace hsgd
