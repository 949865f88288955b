// Scalar reference kernels + the runtime dispatch table. The SIMD
// variants live in sibling TUs compiled with their own -m flags
// (kernels_avx2.cc, kernels_avx512.cc) and are linked in only when the
// build enables them; this TU is always portable.

#include "core/kernels/kernels.h"

#include "util/cpu_features.h"
#include "util/strings.h"

namespace hsgd {

namespace {

float DotScalar(const float* p, const float* q, int k) {
  float acc = 0.0f;
  for (int i = 0; i < k; ++i) acc += p[i] * q[i];
  return acc;
}

double SgdBlockScalar(float* p, float* q, int64_t stride, int k,
                      const Rating* ratings, int64_t n, float lr, float lp,
                      float lq) {
  double sq_err = 0.0;
  for (int64_t idx = 0; idx < n; ++idx) {
    const Rating& rt = ratings[idx];
    float* __restrict pu = p + static_cast<int64_t>(rt.u) * stride;
    float* __restrict qv = q + static_cast<int64_t>(rt.v) * stride;
    const float err = rt.r - DotScalar(pu, qv, k);
    for (int i = 0; i < k; ++i) {
      const float pi = pu[i];
      const float qi = qv[i];
      pu[i] = pi + lr * (err * qi - lp * pi);
      qv[i] = qi + lr * (err * pi - lq * qi);
    }
    sq_err += static_cast<double>(err) * err;
  }
  return sq_err;
}

void ScoreBlockScalar(const float* user, const float* q, int64_t stride,
                      int k, int32_t first_item, int32_t count,
                      float* out) {
  for (int32_t i = 0; i < count; ++i) {
    out[i] = DotScalar(
        user, q + static_cast<int64_t>(first_item + i) * stride, k);
  }
}

}  // namespace

const KernelOps kScalarKernelOps = {
    KernelKind::kScalar, "scalar", DotScalar, SgdBlockScalar,
    ScoreBlockScalar,
};

#ifdef HSGD_HAVE_AVX2
extern const KernelOps kAvx2KernelOps;  // kernels_avx2.cc
#endif
#ifdef HSGD_HAVE_AVX512
extern const KernelOps kAvx512KernelOps;  // kernels_avx512.cc
#endif

const char* KernelKindName(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAuto: return "auto";
    case KernelKind::kScalar: return "scalar";
    case KernelKind::kAvx2: return "avx2";
    case KernelKind::kAvx512: return "avx512";
  }
  return "unknown";
}

StatusOr<KernelKind> KernelKindByName(const std::string& name) {
  for (KernelKind kind : {KernelKind::kAuto, KernelKind::kScalar,
                          KernelKind::kAvx2, KernelKind::kAvx512}) {
    if (name == KernelKindName(kind)) return kind;
  }
  return Status::InvalidArgument(StrFormat(
      "unknown kernel '%s' (expected auto, scalar, avx2 or avx512)",
      name.c_str()));
}

void ScoreBlockBatch(const KernelOps& ops, const float* const* users,
                     int num_users, const float* q, int64_t stride, int k,
                     int32_t first_item, int32_t count, float* out) {
  // One score_block sweep per user over the SAME item tile: the tile's Q
  // rows are pulled from memory by the first user and served from cache
  // to the rest. Delegating to the variant's score_block (rather than a
  // new fused kernel) keeps every batched score bitwise identical to the
  // single-query path for free.
  for (int u = 0; u < num_users; ++u) {
    ops.score_block(users[u], q, stride, k, first_item, count,
                    out + static_cast<int64_t>(u) * count);
  }
}

bool KernelSupported(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAuto:
    case KernelKind::kScalar:
      return true;
    case KernelKind::kAvx2:
#ifdef HSGD_HAVE_AVX2
      return GetCpuFeatures().avx2_usable();
#else
      return false;
#endif
    case KernelKind::kAvx512:
#ifdef HSGD_HAVE_AVX512
      return GetCpuFeatures().avx512_usable();
#else
      return false;
#endif
  }
  return false;
}

StatusOr<KernelKind> ResolveKernelKind(KernelKind requested) {
  if (requested == KernelKind::kAuto) {
    if (KernelSupported(KernelKind::kAvx512)) return KernelKind::kAvx512;
    if (KernelSupported(KernelKind::kAvx2)) return KernelKind::kAvx2;
    return KernelKind::kScalar;
  }
  if (!KernelSupported(requested)) {
    return Status::InvalidArgument(StrFormat(
        "kernel '%s' is not available on this machine/build "
        "(use --kernel=auto for the best supported variant)",
        KernelKindName(requested)));
  }
  return requested;
}

const KernelOps& GetKernelOps(KernelKind resolved) {
  switch (resolved) {
#ifdef HSGD_HAVE_AVX2
    case KernelKind::kAvx2: return kAvx2KernelOps;
#endif
#ifdef HSGD_HAVE_AVX512
    case KernelKind::kAvx512: return kAvx512KernelOps;
#endif
    default: return kScalarKernelOps;
  }
}

const KernelOps& DefaultKernelOps() {
  static const KernelOps& ops = GetKernelOps(*ResolveKernelKind(KernelKind::kAuto));
  return ops;
}

}  // namespace hsgd
