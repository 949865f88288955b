// AVX-512F kernel variants (guarded: the TU is in the build only when
// the toolchain accepts -mavx512f, and the dispatcher only routes here
// when cpuid + XCR0 report ZMM state usable). The padded stride is
// exactly one 16-float ZMM register, so every row is a whole number of
// vectors — no masks, no tails.
//
// The SGD sweep is the training critical path, and it waits on memory:
// each rating gathers two random rows. For k <= 128 (at most 8 vectors
// per row) it loads both rows into ZMM registers once per rating, takes
// the dot from those registers in DotAvx512's exact accumulation order,
// and updates and stores from the same registers, so no row is read
// twice. Wider rows keep the loop that reloads them: two rows of 9 or
// more vectors, plus the accumulators and the broadcast scalars, do not
// fit in the 32 ZMM registers. Both paths pull the rows of the rating
// kSgdPrefetchAhead positions ahead toward L1, far enough that the
// gather has landed by the time that rating is reached. The result is
// bit-identical to the one-rating-at-a-time reference built from
// DotAvx512 (kernels_test checks it at every row width). error_block
// dispatches on the same vector count, so the test errors' dot is
// unrolled too, with DotAvx512's bits.

#include "core/kernels/kernels.h"

#ifdef HSGD_HAVE_AVX512

#if !defined(__AVX512F__)
#error "kernels_avx512.cc must be compiled with -mavx512f"
#endif

#include <immintrin.h>

#include "core/kernels/error_block.h"

namespace hsgd {

namespace {

inline int Ceil16(int k) { return (k + 15) & ~15; }

/// See kernels_avx2.cc: hide the random row-gather latency by pulling
/// an upcoming rating's rows toward L1 during the current update.
inline void PrefetchRows(const float* pu, const float* qv, int k) {
  for (int i = 0; i < k; i += 16) {
    _mm_prefetch(reinterpret_cast<const char*>(pu + i), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(qv + i), _MM_HINT_T0);
  }
}

inline float DotAvx512(const float* p, const float* q, int k) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  const int k32 = k & ~31;
  int i = 0;
  for (; i < k32; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(p + i),
                           _mm512_loadu_ps(q + i), acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(p + i + 16),
                           _mm512_loadu_ps(q + i + 16), acc1);
  }
  const int kv = Ceil16(k);
  for (; i < kv; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(p + i),
                           _mm512_loadu_ps(q + i), acc0);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

/// How many ratings ahead the SGD sweep prefetches rows. One rating's
/// update is too short to hide a row gather that misses cache: on
/// perfbench's train epochs, 4, 6 and 8 ahead measured alike and 1 ahead
/// about 15% slower; 6 is the middle of that plateau.
constexpr int64_t kSgdPrefetchAhead = 6;

/// grad_p = err*q - lp*p ; p += lr*grad_p (and symmetrically for q), on
/// one 16-lane vector of each row, stored back in place.
inline void UpdateVector(float* pu, float* qv, __m512 pi, __m512 qi,
                         __m512 verr, __m512 vlr, __m512 vlp, __m512 vlq) {
  const __m512 gp = _mm512_fmsub_ps(verr, qi, _mm512_mul_ps(vlp, pi));
  const __m512 gq = _mm512_fmsub_ps(verr, pi, _mm512_mul_ps(vlq, qi));
  _mm512_storeu_ps(pu, _mm512_fmadd_ps(vlr, gp, pi));
  _mm512_storeu_ps(qv, _mm512_fmadd_ps(vlr, gq, qi));
}

/// DotAvx512 over rows of exactly V vectors (V = Ceil16(k) / 16 <= 8)
/// held in registers. Its paired loop covers the first k & ~31 lanes, so
/// every vector before the last alternates acc0/acc1, and the last one
/// joins acc1 only when it closes a pair (V even and k a multiple of 32),
/// else acc0.
template <int V>
inline float DotRegs(const __m512* pr, const __m512* qr, int k) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  for (int j = 0; j + 1 < V; ++j) {
    if (j % 2 == 0) {
      acc0 = _mm512_fmadd_ps(pr[j], qr[j], acc0);
    } else {
      acc1 = _mm512_fmadd_ps(pr[j], qr[j], acc1);
    }
  }
  if (V % 2 == 0 && k % 32 == 0) {
    acc1 = _mm512_fmadd_ps(pr[V - 1], qr[V - 1], acc1);
  } else {
    acc0 = _mm512_fmadd_ps(pr[V - 1], qr[V - 1], acc0);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

/// DotAvx512 with the vector count fixed at V, for error_block.
template <int V>
inline float DotAvx512V(const float* p, const float* q, int k) {
  __m512 pr[V];
  __m512 qr[V];
  for (int j = 0; j < V; ++j) {
    pr[j] = _mm512_loadu_ps(p + 16 * j);
    qr[j] = _mm512_loadu_ps(q + 16 * j);
  }
  return DotRegs<V>(pr, qr, k);
}

/// The sweep for rows of exactly V vectors (V = Ceil16(k) / 16 <= 8),
/// with both rows held in registers and the dot taken by DotRegs.
template <int V>
double SgdBlockRegs(float* p, float* q, int64_t stride, int k,
                    const Rating* ratings, int64_t n, float lr, float lp,
                    float lq) {
  const __m512 vlr = _mm512_set1_ps(lr);
  const __m512 vlp = _mm512_set1_ps(lp);
  const __m512 vlq = _mm512_set1_ps(lq);
  double sq_err = 0.0;
  for (int64_t idx = 0; idx < n; ++idx) {
    const Rating& rt = ratings[idx];
    float* pu = p + static_cast<int64_t>(rt.u) * stride;
    float* qv = q + static_cast<int64_t>(rt.v) * stride;
    if (idx + kSgdPrefetchAhead < n) {
      const Rating& ahead = ratings[idx + kSgdPrefetchAhead];
      PrefetchRows(p + static_cast<int64_t>(ahead.u) * stride,
                   q + static_cast<int64_t>(ahead.v) * stride, V * 16);
    }
    __m512 pr[V];
    __m512 qr[V];
    for (int j = 0; j < V; ++j) {
      pr[j] = _mm512_loadu_ps(pu + 16 * j);
      qr[j] = _mm512_loadu_ps(qv + 16 * j);
    }
    const float err = rt.r - DotRegs<V>(pr, qr, k);
    const __m512 verr = _mm512_set1_ps(err);
    for (int j = 0; j < V; ++j) {
      UpdateVector(pu + 16 * j, qv + 16 * j, pr[j], qr[j], verr, vlr, vlp,
                   vlq);
    }
    sq_err += static_cast<double>(err) * err;
  }
  return sq_err;
}

/// The sweep for rows wider than 8 vectors: the dot and the update each
/// read the rows from memory (L1 by then).
double SgdBlockLoop(float* p, float* q, int64_t stride, int k,
                    const Rating* ratings, int64_t n, float lr, float lp,
                    float lq) {
  const int kv = Ceil16(k);
  const __m512 vlr = _mm512_set1_ps(lr);
  const __m512 vlp = _mm512_set1_ps(lp);
  const __m512 vlq = _mm512_set1_ps(lq);
  double sq_err = 0.0;
  for (int64_t idx = 0; idx < n; ++idx) {
    const Rating& rt = ratings[idx];
    float* pu = p + static_cast<int64_t>(rt.u) * stride;
    float* qv = q + static_cast<int64_t>(rt.v) * stride;
    if (idx + kSgdPrefetchAhead < n) {
      const Rating& ahead = ratings[idx + kSgdPrefetchAhead];
      PrefetchRows(p + static_cast<int64_t>(ahead.u) * stride,
                   q + static_cast<int64_t>(ahead.v) * stride, k);
    }
    const float err = rt.r - DotAvx512(pu, qv, k);
    const __m512 verr = _mm512_set1_ps(err);
    for (int i = 0; i < kv; i += 16) {
      UpdateVector(pu + i, qv + i, _mm512_loadu_ps(pu + i),
                   _mm512_loadu_ps(qv + i), verr, vlr, vlp, vlq);
    }
    sq_err += static_cast<double>(err) * err;
  }
  return sq_err;
}

double SgdBlockAvx512(float* p, float* q, int64_t stride, int k,
                      const Rating* ratings, int64_t n, float lr, float lp,
                      float lq) {
  switch (Ceil16(k) / 16) {
    case 1:
      return SgdBlockRegs<1>(p, q, stride, k, ratings, n, lr, lp, lq);
    case 2:
      return SgdBlockRegs<2>(p, q, stride, k, ratings, n, lr, lp, lq);
    case 3:
      return SgdBlockRegs<3>(p, q, stride, k, ratings, n, lr, lp, lq);
    case 4:
      return SgdBlockRegs<4>(p, q, stride, k, ratings, n, lr, lp, lq);
    case 5:
      return SgdBlockRegs<5>(p, q, stride, k, ratings, n, lr, lp, lq);
    case 6:
      return SgdBlockRegs<6>(p, q, stride, k, ratings, n, lr, lp, lq);
    case 7:
      return SgdBlockRegs<7>(p, q, stride, k, ratings, n, lr, lp, lq);
    case 8:
      return SgdBlockRegs<8>(p, q, stride, k, ratings, n, lr, lp, lq);
    default:
      return SgdBlockLoop(p, q, stride, k, ratings, n, lr, lp, lq);
  }
}

/// error_block with the dot's vector count fixed, as the sweep's is:
/// rows of at most 8 vectors are loaded whole and summed by DotRegs;
/// wider rows keep DotAvx512's loop.
double ErrorBlockAvx512(const float* p, const float* q, int64_t stride,
                        int k, const Rating* ratings, const int32_t* pos,
                        int64_t n, float* out) {
  switch (Ceil16(k) / 16) {
    case 1:
      return ErrorBlock<DotAvx512V<1>>(p, q, stride, k, ratings, pos, n, out);
    case 2:
      return ErrorBlock<DotAvx512V<2>>(p, q, stride, k, ratings, pos, n, out);
    case 3:
      return ErrorBlock<DotAvx512V<3>>(p, q, stride, k, ratings, pos, n, out);
    case 4:
      return ErrorBlock<DotAvx512V<4>>(p, q, stride, k, ratings, pos, n, out);
    case 5:
      return ErrorBlock<DotAvx512V<5>>(p, q, stride, k, ratings, pos, n, out);
    case 6:
      return ErrorBlock<DotAvx512V<6>>(p, q, stride, k, ratings, pos, n, out);
    case 7:
      return ErrorBlock<DotAvx512V<7>>(p, q, stride, k, ratings, pos, n, out);
    case 8:
      return ErrorBlock<DotAvx512V<8>>(p, q, stride, k, ratings, pos, n, out);
    default:
      return ErrorBlock<DotAvx512>(p, q, stride, k, ratings, pos, n, out);
  }
}

void ScoreBlockAvx512(const float* user, const float* q, int64_t stride,
                      int k, int32_t first_item, int32_t count,
                      float* out) {
  for (int32_t i = 0; i < count; ++i) {
    out[i] = DotAvx512(
        user, q + static_cast<int64_t>(first_item + i) * stride, k);
  }
}

}  // namespace

extern const KernelOps kAvx512KernelOps;
const KernelOps kAvx512KernelOps = {
    KernelKind::kAvx512, "avx512", DotAvx512, SgdBlockAvx512,
    ScoreBlockAvx512, ErrorBlockAvx512,
};

}  // namespace hsgd

#endif  // HSGD_HAVE_AVX512
