// AVX2 + FMA kernel variants. This TU is compiled with -mavx2 -mfma and
// linked in only when the build enables HSGD_HAVE_AVX2; the dispatcher
// guarantees its entry points run only on CPUs whose cpuid/XCR0 say the
// instructions are usable.
//
// All loops rely on the padded-zero layout contract (kernels.h): loads
// and stores may cover up to PaddedStride(k) lanes, and the SGD update
// maps zero lanes to zero, so no masking or scalar tails are needed.

#include "core/kernels/kernels.h"

#ifdef HSGD_HAVE_AVX2

#if !defined(__AVX2__) || !defined(__FMA__)
#error "kernels_avx2.cc must be compiled with -mavx2 -mfma"
#endif

#include <immintrin.h>

namespace hsgd {

namespace {

/// Lanes the 8-wide loops sweep for rank k: k rounded up to one vector.
/// Always <= PaddedStride(k), so the extra lanes are in-bounds zeros.
inline int Ceil8(int k) { return (k + 7) & ~7; }

inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 shuf = _mm_movehdup_ps(lo);
  __m128 sums = _mm_add_ps(lo, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  return _mm_cvtss_f32(sums);
}

/// Four-accumulator FMA dot (breaks the loop-carried add chain four
/// ways, hiding FMA latency). The identical accumulation order is shared
/// by every entry point in this table (see the header's
/// bitwise-agreement contract between dot, sgd_block and score_block).
inline float DotAvx2(const float* p, const float* q, int k) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  const int k32 = k & ~31;
  int i = 0;
  for (; i < k32; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(p + i),
                           _mm256_loadu_ps(q + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(p + i + 8),
                           _mm256_loadu_ps(q + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(p + i + 16),
                           _mm256_loadu_ps(q + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(p + i + 24),
                           _mm256_loadu_ps(q + i + 24), acc3);
  }
  const int kv = Ceil8(k);
  for (; i < kv; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(p + i),
                           _mm256_loadu_ps(q + i), acc0);
  }
  return HorizontalSum(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                     _mm256_add_ps(acc2, acc3)));
}

/// Pull the factor rows of an upcoming rating toward L1 while the
/// current update's FMA chains run — the gather pattern is random, so
/// without this the loop stalls on a fresh row-pair miss every rating.
inline void PrefetchRows(const float* pu, const float* qv, int k) {
  for (int i = 0; i < k; i += 16) {
    _mm_prefetch(reinterpret_cast<const char*>(pu + i), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(qv + i), _MM_HINT_T0);
  }
}

double SgdBlockAvx2(float* p, float* q, int64_t stride, int k,
                    const Rating* ratings, int64_t n, float lr, float lp,
                    float lq) {
  const int kv = Ceil8(k);
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vlp = _mm256_set1_ps(lp);
  const __m256 vlq = _mm256_set1_ps(lq);
  double sq_err = 0.0;
  for (int64_t idx = 0; idx < n; ++idx) {
    const Rating& rt = ratings[idx];
    float* pu = p + static_cast<int64_t>(rt.u) * stride;
    float* qv = q + static_cast<int64_t>(rt.v) * stride;
    if (idx + 1 < n) {
      const Rating& next = ratings[idx + 1];
      PrefetchRows(p + static_cast<int64_t>(next.u) * stride,
                   q + static_cast<int64_t>(next.v) * stride, k);
    }
    const float err = rt.r - DotAvx2(pu, qv, k);
    const __m256 verr = _mm256_set1_ps(err);
    for (int i = 0; i < kv; i += 8) {
      const __m256 pi = _mm256_loadu_ps(pu + i);
      const __m256 qi = _mm256_loadu_ps(qv + i);
      // grad_p = err*q - lp*p ; p += lr*grad_p (and symmetrically for q).
      const __m256 gp = _mm256_fmsub_ps(verr, qi, _mm256_mul_ps(vlp, pi));
      const __m256 gq = _mm256_fmsub_ps(verr, pi, _mm256_mul_ps(vlq, qi));
      _mm256_storeu_ps(pu + i, _mm256_fmadd_ps(vlr, gp, pi));
      _mm256_storeu_ps(qv + i, _mm256_fmadd_ps(vlr, gq, qi));
    }
    sq_err += static_cast<double>(err) * err;
  }
  return sq_err;
}

void ScoreBlockAvx2(const float* user, const float* q, int64_t stride,
                    int k, int32_t first_item, int32_t count, float* out) {
  for (int32_t i = 0; i < count; ++i) {
    out[i] = DotAvx2(
        user, q + static_cast<int64_t>(first_item + i) * stride, k);
  }
}

}  // namespace

extern const KernelOps kAvx2KernelOps;
const KernelOps kAvx2KernelOps = {
    KernelKind::kAvx2, "avx2", DotAvx2, SgdBlockAvx2, ScoreBlockAvx2,
};

}  // namespace hsgd

#endif  // HSGD_HAVE_AVX2
