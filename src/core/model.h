// Factor model P (rows x k) and Q (cols x k) plus the real SGD and RMSE
// kernels. These are genuine compute kernels — the simulator decides *when*
// a block runs and how long it takes in virtual time, but the arithmetic
// applied to the factors is the real thing, so loss curves are honest.
//
// Storage is SIMD-friendly: each factor row occupies PaddedStride(k)
// floats (k rounded up to a 64-byte cache line) in a 64-byte-aligned
// allocation, and the padding lanes are zero — an invariant InitRandom
// establishes and every kernel preserves (see core/kernels/kernels.h for
// why that lets vector loops sweep whole rows unmasked). Use Row()/Col()
// for per-entity access; only the first k lanes of a row are meaningful.

#pragma once

#include <cstdint>
#include <vector>

#include "core/kernels/kernels.h"
#include "core/types.h"
#include "util/aligned.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hsgd {

class BlockedMatrix;   // sched/blocked_matrix.h
struct BlockBuckets;  // sched/blocked_matrix.h

class Model {
 public:
  Model(int32_t num_rows, int32_t num_cols, int k);

  /// Initialize entries uniform in [0, hi) with hi = 2*sqrt(mean/k) so the
  /// initial prediction is centered on the mean rating. A degenerate mean
  /// (<= 0, e.g. an all-zero rating dump) would make hi == 0 and freeze
  /// training at the all-zero saddle point; it is clamped to a small
  /// positive floor instead, with a warning.
  void InitRandom(Rng* rng, double mean_rating);

  /// Grow to `new_rows` x `new_cols` (each must be >= the current dim).
  /// New rows/cols are drawn from `rng` with the same [0, hi) range
  /// InitRandom would use for `mean_rating`, so cold entities start
  /// statistically like warm ones did. A matrix that outgrows its
  /// storage moves, bit-identically and with the same PaddedStride
  /// pitch, into a fresh aligned allocation with an eighth of headroom,
  /// so streaming appends that add a few rows at a time rarely
  /// reallocate. Padding lanes of every row — old and new — stay zero.
  /// Invalidates all Row()/Col()/p_data()/q_data() pointers.
  void Grow(int32_t new_rows, int32_t new_cols, Rng* rng,
            double mean_rating);

  int32_t num_rows() const { return num_rows_; }
  int32_t num_cols() const { return num_cols_; }
  int k() const { return k_; }
  /// Padded row pitch in floats (PaddedStride(k)); the distance between
  /// consecutive Row()/Col() pointers.
  int stride() const { return stride_; }

  float* Row(int32_t u) {
    return p_.get() + static_cast<int64_t>(u) * stride_;
  }
  const float* Row(int32_t u) const {
    return p_.get() + static_cast<int64_t>(u) * stride_;
  }
  float* Col(int32_t v) {
    return q_.get() + static_cast<int64_t>(v) * stride_;
  }
  const float* Col(int32_t v) const {
    return q_.get() + static_cast<int64_t>(v) * stride_;
  }

  /// p_u . q_v through `ops` (null = the auto-dispatched default). Pass
  /// the same ops as the surrounding Session/BatchTopK when the kernel
  /// is pinned away from the default — each variant's dot is bitwise
  /// consistent with its own score_block, but not across variants.
  float Predict(int32_t u, int32_t v, const KernelOps* ops = nullptr) const;

  /// Raw padded storage (num_rows*stride / num_cols*stride floats,
  /// 64-byte aligned). Kernels index it as base + row*stride.
  const float* p_data() const { return p_.get(); }
  float* p_data() { return p_.get(); }
  const float* q_data() const { return q_.get(); }
  float* q_data() { return q_.get(); }
  size_t p_size() const {
    return static_cast<size_t>(num_rows_) * stride_;
  }
  size_t q_size() const {
    return static_cast<size_t>(num_cols_) * stride_;
  }

  /// Dense (stride-free, num_rows*k / num_cols*k) factor copies, for
  /// comparing or seeding models whatever their padding. Checkpoints do
  /// not use them: core/checkpoint.h moves the rows straight between the
  /// strided storage and the file.
  std::vector<float> DenseP() const;
  std::vector<float> DenseQ() const;
  /// Inverse of DenseP/DenseQ; `p` and `q` must be exactly
  /// num_rows*k / num_cols*k floats. Re-zeroes the padding lanes.
  void SetDense(const std::vector<float>& p, const std::vector<float>& q);
  size_t dense_p_size() const {
    return static_cast<size_t>(num_rows_) * k_;
  }
  size_t dense_q_size() const {
    return static_cast<size_t>(num_cols_) * k_;
  }

 private:
  int32_t num_rows_;
  int32_t num_cols_;
  int k_;
  int stride_;
  /// Rows p_ / q_ have room for; the rows past num_rows_ / num_cols_ are
  /// zero.
  int32_t row_capacity_;
  int32_t col_capacity_;
  AlignedFloatPtr p_;
  AlignedFloatPtr q_;
};

struct SgdHyper {
  float learning_rate = 0.005f;
  float lambda_p = 0.05f;
  float lambda_q = 0.05f;
};

/// One sequential SGD sweep over `block`; returns the pre-update sum of
/// squared errors (free by-product of the updates). `ops` selects the
/// kernel variant; null means the auto-dispatched default.
double SgdUpdateBlock(Model* model, const Ratings& block, SgdHyper hyper,
                      const KernelOps* ops = nullptr);

/// A rating list that SgdUpdateBlocks evaluates on its lanes.
struct EvalSet {
  /// The list bucketed by the blocks of the matrix's grid (BucketByBlock).
  const BlockBuckets* buckets = nullptr;
  /// One error per rating of the list, written at the rating's position.
  float* errors = nullptr;
};

/// Apply `blocks` (block ids of `matrix`, repeats allowed) on `pool`'s
/// threads plus the calling thread. Contract: the factors end with the
/// same bits as calling SgdUpdateBlock on each listed block, in list
/// order, for any pool size (null = the caller alone). Block b covers
/// row stratum b / num_col_strata() and column stratum
/// b % num_col_strata(); each block waits only for the last earlier
/// listed block in its row stratum and the last in its column stratum.
/// Any two blocks left unordered share neither stratum, so they update
/// disjoint rows of P and of Q and commute exactly.
///
/// With `eval`, the lanes also write each evaluated rating's error
/// r - dot(p_u, q_v) over the final factors to eval->errors at its list
/// position, with the bits of ops.error_block run after the whole list.
/// A rating of block b reads a row only blocks of b's row stratum write
/// and a column only blocks of b's column stratum write, so the executor
/// counts, per row stratum and per column stratum, the listed blocks not
/// yet applied (a block counts once its sweep completes, not when a lane
/// takes it) and releases b's bucket when both counts are zero: at the
/// start if its strata hold no listed block. A lane takes a ready block
/// first, else at most 4,096 released ratings, read in runs from the
/// buckets' copies. So the evaluation fills lanes the dependency chain
/// leaves idle, and its errors have the same bits for any pool size.
///
/// Returns the sum of the listed blocks' SgdUpdateBlock returns: each
/// is kept for its list position and the sum is taken in list order
/// after the lanes join, so it has the same bits for any pool size and
/// equals the in-order sum of a serial SgdUpdateBlock loop. 0.0 for an
/// empty list.
double SgdUpdateBlocks(Model* model, const BlockedMatrix& matrix,
                       const std::vector<int>& blocks, SgdHyper hyper,
                       const KernelOps* ops, ThreadPool* pool,
                       const EvalSet* eval = nullptr);

/// Root mean squared prediction error over `ratings`, the list-order
/// reference for the evaluation SgdUpdateBlocks runs on its lanes. Each
/// rating's error is ops.error_block's r - dot(p_u, q_v) in float, the
/// pre-update error sgd_block computes; (double)err * err is summed in
/// list order within each run of 65,536 ratings and the runs' sums are
/// added in order. So the result has the same bits for any pool size,
/// and a run's sum equals sgd_block's return at learning rate 0 over the
/// same ratings. With no pool, error_block folds each run as it computes
/// it; with one, the lanes compute (pool threads + 1) runs of errors at
/// a time into a buffer, 4,096 ratings per task, and then fold each run.
double Rmse(const Model& model, const Ratings& ratings, ThreadPool* pool,
            const KernelOps* ops = nullptr);

/// Rmse's fold over errors computed elsewhere (SgdUpdateBlocks' EvalSet):
/// the root mean of (double)e * e over errors[0, n), in runs of 65,536
/// as Rmse sums them, the runs folded on `pool`'s lanes (null = the
/// caller alone). Equals Rmse over the errors' ratings bit for bit.
double RmseOfErrors(const float* errors, int64_t n, ThreadPool* pool);

}  // namespace hsgd
