#include "sim/gpu_device.h"

#include <algorithm>

#include "obs/trace.h"

namespace hsgd {

SimtKernelModel::SimtKernelModel(const GpuDeviceSpec& spec, int k)
    : spec_(spec), k_(k > 0 ? k : 1) {
  double worker_rate =
      spec.worker_point_rate_k128 * (128.0 / k_) * spec.speed_factor;
  point_time_ = 1.0 / worker_rate;
  peak_rate_ = worker_rate * spec.parallel_workers;
}

SimTime SimtKernelModel::ExecTime(int64_t nnz, int64_t rows,
                                  int64_t cols) const {
  if (nnz <= 0) return 0.0;
  const int w = std::max(1, spec_.parallel_workers);
  const int64_t serial_iters = (nnz + w - 1) / w;
  const double compute_time = static_cast<double>(serial_iters) * point_time_;
  // Each update streams ~k*8 bytes of factor traffic through device
  // memory; at large W the kernel goes memory-bound and stops scaling.
  const double mem_time = static_cast<double>(nnz) * k_ * 8.0 /
                          (spec_.device_mem_bw * spec_.speed_factor);
  const double factor_bytes =
      static_cast<double>(std::max<int64_t>(0, rows) +
                          std::max<int64_t>(0, cols)) *
      k_ * 4.0;
  return spec_.kernel_launch_overhead + std::max(compute_time, mem_time) +
         factor_bytes / spec_.device_mem_bw;
}

GpuDevice::GpuDevice(const GpuDeviceSpec& spec, int k, bool pipelined)
    : spec_(spec),
      k_(k > 0 ? k : 1),
      pipelined_(pipelined),
      kernel_(spec, k),
      link_(spec) {}

PipelineTiming GpuDevice::Process(SimTime ready, const GpuWorkItem& item) {
  const int64_t factor_count =
      std::max<int64_t>(0, item.rows) + std::max<int64_t>(0, item.cols);
  const int64_t bytes_in =
      item.nnz * RatingBytes() + factor_count * FactorBytes();
  const int64_t bytes_out = factor_count * FactorBytes();

  PipelineTiming t;
  t.h2d_start = std::max(ready, h2d_free_);
  // A faulted transfer pays the failed attempt + detection timeout before
  // the retry succeeds; exactly 0.0 extra on a clean link.
  const SimTime h2d_penalty = link_.ConsumeFaultPenalty(
      bytes_in, TransferDirection::kHostToDevice);
  t.h2d_done = t.h2d_start + h2d_penalty +
               link_.TransferTime(bytes_in,
                                  TransferDirection::kHostToDevice);
  t.kernel_start = std::max(t.h2d_done, kernel_free_);
  const SimTime exec_healthy =
      kernel_.ExecTime(item.nnz, item.rows, item.cols);
  // SlowdownAt is exactly 1.0 outside a degraded window, so healthy runs
  // stay bit-identical to the health-blind computation.
  const SimTime exec =
      exec_healthy * health_.SlowdownAt(t.kernel_start);
  t.kernel_done = t.kernel_start + exec;
  t.d2h_start = std::max(t.kernel_done, d2h_free_);
  t.d2h_done =
      t.d2h_start + link_.TransferTime(bytes_out,
                                       TransferDirection::kDeviceToHost);
  t.healthy_span =
      (t.d2h_done - t.h2d_start) - (exec - exec_healthy) - h2d_penalty;
  if (pipelined_) {
    // Streams free up independently: the next block's H2D can run under
    // this block's kernel.
    h2d_free_ = t.h2d_done;
    kernel_free_ = t.kernel_done;
    d2h_free_ = t.d2h_done;
  } else {
    h2d_free_ = kernel_free_ = d2h_free_ = t.d2h_done;
  }
  busy_seconds_ += exec;
  if (tracer_ != nullptr) {
    if (bytes_in > 0) {
      tracer_->Span("transfer", "h2d", trace_tid_, t.h2d_start, t.h2d_done,
                    {obs::TraceArg::Int("bytes", bytes_in)});
    }
    tracer_->Span("device", "kernel", trace_tid_, t.kernel_start,
                  t.kernel_done, {obs::TraceArg::Int("nnz", item.nnz)});
    if (bytes_out > 0) {
      tracer_->Span("transfer", "d2h", trace_tid_, t.d2h_start, t.d2h_done,
                    {obs::TraceArg::Int("bytes", bytes_out)});
    }
  }
  return t;
}

SimTime GpuDevice::Upload(SimTime ready, int64_t bytes) {
  SimTime start = std::max(ready, h2d_free_);
  SimTime done =
      start +
      link_.ConsumeFaultPenalty(bytes, TransferDirection::kHostToDevice) +
      link_.TransferTime(bytes, TransferDirection::kHostToDevice);
  h2d_free_ = done;
  if (!pipelined_) kernel_free_ = d2h_free_ = done;
  return done;
}

}  // namespace hsgd
