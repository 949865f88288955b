// The error_block entry (kernels.h) as one template over a variant's dot.
// Each kernel TU instantiates it with its own inline dot and compiles it
// with its own -m flags, so everything here has internal linkage: no TU
// may link another's machine code. Include it only from the kernel TUs.

#pragma once

#include <cstdint>

#include "core/kernels/kernels.h"

namespace hsgd {
namespace {

/// How many ratings ahead error_block pulls rows toward the cache: the
/// ratings gather random rows, as the SGD sweeps' do. A scattered error's
/// slot is pulled twice as far ahead.
constexpr int64_t kErrorPrefetchAhead = 6;

/// err = r - Dot(p_u, q_v) for ratings[i], i in [0, n), written to
/// out[pos[i]] (out[i] when `pos` is null); see KernelOps::error_block.
template <float (*Dot)(const float*, const float*, int)>
double ErrorBlock(const float* p, const float* q, int64_t stride, int k,
                  const Rating* ratings, const int32_t* pos, int64_t n,
                  float* out) {
  double sq_err = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    if (pos != nullptr && out != nullptr &&
        i + 2 * kErrorPrefetchAhead < n) {
      __builtin_prefetch(out + pos[i + 2 * kErrorPrefetchAhead], 1);
    }
    if (i + kErrorPrefetchAhead < n) {
      const Rating& ahead = ratings[i + kErrorPrefetchAhead];
      const float* pu = p + static_cast<int64_t>(ahead.u) * stride;
      const float* qv = q + static_cast<int64_t>(ahead.v) * stride;
      for (int lane = 0; lane < k; lane += kFactorPadFloats) {
        __builtin_prefetch(pu + lane);
        __builtin_prefetch(qv + lane);
      }
    }
    const Rating& rt = ratings[i];
    const float err = rt.r - Dot(p + static_cast<int64_t>(rt.u) * stride,
                                 q + static_cast<int64_t>(rt.v) * stride, k);
    if (out != nullptr) out[pos == nullptr ? i : pos[i]] = err;
    sq_err += static_cast<double>(err) * err;
  }
  return sq_err;
}

}  // namespace
}  // namespace hsgd
