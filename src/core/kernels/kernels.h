// Vectorized compute kernels for the hot primitives of the engine —
// fused dot+SGD-update over a rating block, batch dot-scoring and
// prediction errors over a rating list — plus the single dot product
// they are built from, in scalar, AVX2+FMA and
// (optional) AVX-512F variants behind one dispatch table. Every caller
// that used to hand-roll the k-loop (Model::Predict, SgdUpdateBlock,
// Rmse, serve::BatchTopK) now routes through a KernelOps table; which
// table is picked at runtime from cpuid (util/cpu_features.h),
// overridable via TrainConfig::kernel / the benches' --kernel flag.
//
// Layout contract. The factor matrices are stored stride-padded and
// 64-byte aligned (core/model.h): row r of a rank-k matrix lives at
// `base + r * stride` with `stride == PaddedStride(k)`, and the
// `stride - k` padding lanes are ZERO. Vector kernels exploit both
// properties — they load full SIMD lanes past `k` without masking
// (padding contributes 0 to every dot) and store full lanes back (the
// SGD update maps 0 factors to 0, so padding stays zero). Whole padded
// rows also let the AVX-512 SGD sweep hold both of a rating's rows in
// registers for k <= 128 (at most 8 ZMM vectors each), computing the
// dot, the update and the stores from one load of each row. The scalar
// kernels touch exactly `k` lanes with the pre-SIMD loops' accumulation
// order.
//
// Within one KernelOps table the same dot-accumulation order is used by
// every entry point. So the squared error sgd_block reports at learning
// rate 0 equals, bit for bit, the in-order sum of (double)err * err
// with each err = r - dot(p_u, q_v) rounded to float — which is what
// error_block returns, and the sum Rmse (core/model.h) takes over each
// of its runs of ratings, whether error_block folds the run itself or
// writes the errors for a later fold; for AVX-512 this holds across two
// codings of that order, the register sweep and DotAvx512. Each
// sgd_block equals a one-rating-at-a-time reference built from its own
// dot bit for bit, and each error_block equals that dot per rating,
// written in order and scattered by position (kernels_test checks all
// three at every row width). Across tables results differ only by float
// summation order (tested to tolerance in kernels_test).

#pragma once

#include <cstdint>
#include <string>

#include "core/types.h"
#include "util/status.h"

namespace hsgd {

/// Factor rows are padded to a multiple of 16 floats (one 64-byte cache
/// line, also the AVX-512 register width), so rows never split lines and
/// every SIMD variant can sweep whole rows.
inline constexpr int kFactorPadFloats = 16;
inline constexpr int kFactorAlignBytes = 64;

constexpr int PaddedStride(int k) {
  return (k + kFactorPadFloats - 1) / kFactorPadFloats * kFactorPadFloats;
}

enum class KernelKind : int32_t {
  kAuto = 0,    // resolve to the best usable variant at startup
  kScalar = 1,  // portable reference baseline
  kAvx2 = 2,    // AVX2 + FMA, 8-float lanes
  kAvx512 = 3,  // AVX-512F, 16-float lanes (guarded: compiled in only
                // when the toolchain supports -mavx512f)
};

const char* KernelKindName(KernelKind kind);
/// "auto", "scalar", "avx2", "avx512" — the --kernel flag vocabulary.
StatusOr<KernelKind> KernelKindByName(const std::string& name);

/// One variant's implementations of the primitives (plus the single dot
/// product they are built from). `stride` is the padded row pitch of
/// BOTH factor matrices; `k` the logical rank.
struct KernelOps {
  KernelKind kind = KernelKind::kScalar;
  const char* name = "scalar";

  /// Single dot product p . q over k lanes.
  float (*dot)(const float* p, const float* q, int k);

  /// Sequential fused predict+SGD sweep over ratings[0..n): for each
  /// rating (u, v, r) updates row u of `p` and row v of `q` in place.
  /// Returns the sum of squared pre-update errors.
  double (*sgd_block)(float* p, float* q, int64_t stride, int k,
                      const Rating* ratings, int64_t n, float learning_rate,
                      float lambda_p, float lambda_q);

  /// Batch dot-scoring: out[i] = user . q_{first_item + i} for
  /// i in [0, count). Each score is bitwise equal to dot() on the same
  /// operands, so rankings agree with single-item prediction.
  void (*score_block)(const float* user, const float* q, int64_t stride,
                      int k, int32_t first_item, int32_t count, float* out);

  /// Prediction errors over ratings[0..n): each rating's
  /// err = r - dot(p_u, q_v), rounded to float with dot()'s bits, is
  /// written to out[pos[i]] (out[i] when `pos` is null; nowhere when
  /// `out` is null). Returns the in-order sum of (double)err * err. The
  /// dot is inlined, and the rows of a rating a few positions ahead (and
  /// its error's slot) are prefetched.
  double (*error_block)(const float* p, const float* q, int64_t stride,
                        int k, const Rating* ratings, const int32_t* pos,
                        int64_t n, float* out);
};

/// Multi-user batch scoring over one item tile — the serving layer's
/// entry point into the batch dot-scoring kernel. Scores every user row
/// in `users[0..num_users)` against items [first_item, first_item+count)
/// and writes out[u * count + i] = users[u] . q_{first_item + i}. Each
/// user's row of `out` is bitwise identical to a direct
/// ops.score_block call on the same operands, so batched and per-query
/// rankings agree exactly; the win is cache reuse — the Q tile is swept
/// once per user while it is still resident, so one pass of the factor
/// matrix through memory serves the whole batch.
void ScoreBlockBatch(const KernelOps& ops, const float* const* users,
                     int num_users, const float* q, int64_t stride, int k,
                     int32_t first_item, int32_t count, float* out);

/// Variant is compiled in AND runnable on this CPU.
bool KernelSupported(KernelKind kind);

/// kAuto -> the fastest usable variant (avx512 > avx2 > scalar; AVX-512
/// is only auto-picked where it is compiled in and the OS saves ZMM
/// state). A concrete kind resolves to itself when supported and is an
/// InvalidArgument otherwise — requesting avx2 on a machine without it
/// must fail loudly, not silently retune the engine's numerics.
StatusOr<KernelKind> ResolveKernelKind(KernelKind requested);

/// Dispatch table for a resolved (non-auto, supported) kind.
const KernelOps& GetKernelOps(KernelKind resolved);

/// GetKernelOps(ResolveKernelKind(kAuto)), resolved once and cached —
/// what Model::Predict and the kernel-parameter defaults use.
const KernelOps& DefaultKernelOps();

}  // namespace hsgd
