#include "core/kernels/calibrator.h"

#include <algorithm>
#include <vector>

#include "util/aligned.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace hsgd {

KernelCalibration CalibrateKernel(KernelKind kind, int k,
                                  double min_seconds) {
  HSGD_CHECK(k > 0);
  auto resolved = ResolveKernelKind(kind);
  HSGD_CHECK_OK(resolved.status()) << "cannot calibrate";
  const KernelOps& ops = GetKernelOps(*resolved);

  // Each factor matrix is 2 MB at every rank (4,096 rows at k=128, more
  // at smaller k), so P and Q together outgrow a 2 MB L2 rather than
  // sitting in it at small k, and the block is long enough that
  // per-sweep overhead vanishes; mirrors the flat-in-block-size regime
  // of Fig. 3b that updates_per_sec_k128 describes.
  constexpr int64_t kMatrixFloats = 4096 * 128;
  const int64_t stride = PaddedStride(k);
  const int32_t rows =
      static_cast<int32_t>(std::max<int64_t>(1, kMatrixFloats / stride));
  const int32_t cols = rows;
  const int64_t nnz = 200000;
  AlignedFloatPtr p =
      AllocateAlignedFloats(static_cast<size_t>(rows) * stride);
  AlignedFloatPtr q =
      AllocateAlignedFloats(static_cast<size_t>(cols) * stride);
  Rng rng(12345);
  for (int32_t r = 0; r < rows; ++r) {
    for (int i = 0; i < k; ++i) {
      p.get()[r * stride + i] = rng.NextFloat() * 0.3f;
    }
  }
  for (int32_t c = 0; c < cols; ++c) {
    for (int i = 0; i < k; ++i) {
      q.get()[c * stride + i] = rng.NextFloat() * 0.3f;
    }
  }
  Ratings block(static_cast<size_t>(nnz));
  for (Rating& rt : block) {
    rt.u = static_cast<int32_t>(rng.UniformInt(rows));
    rt.v = static_cast<int32_t>(rng.UniformInt(cols));
    rt.r = 1.0f + 4.0f * rng.NextFloat();
  }

  // One warm-up sweep (page faults, frequency ramp), then timed sweeps
  // until the clock has accumulated enough to be trustworthy.
  volatile double sink = ops.sgd_block(p.get(), q.get(), stride, k,
                                       block.data(), nnz, 0.002f, 0.02f,
                                       0.02f);
  Stopwatch timer;
  int64_t sweeps = 0;
  double elapsed = 0.0;
  do {
    sink = ops.sgd_block(p.get(), q.get(), stride, k, block.data(), nnz,
                         0.002f, 0.02f, 0.02f);
    ++sweeps;
    elapsed = timer.Seconds();
  } while (elapsed < min_seconds);
  (void)sink;

  KernelCalibration cal;
  cal.kernel = *resolved;
  cal.k = k;
  cal.updates_per_sec =
      static_cast<double>(sweeps * nnz) / (elapsed > 0.0 ? elapsed : 1e-9);
  cal.updates_per_sec_k128 = cal.updates_per_sec * k / 128.0;
  return cal;
}

}  // namespace hsgd
