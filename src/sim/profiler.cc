#include "sim/profiler.h"

#include <algorithm>
#include <cmath>

namespace hsgd {

double HsgdCostModel::CpuEpochTime(double nnz, int threads,
                                   double block_nnz) const {
  if (threads < 1) threads = 1;
  if (block_nnz < 1.0) block_nnz = 1.0;
  // rate(b) = R * b / (b + warmup) => time = (nnz + warmup * num_blocks) / R
  const double effective_rate =
      cpu_rate * block_nnz / (block_nnz + cpu_warmup_nnz);
  return nnz / (effective_rate * threads);
}

double HsgdCostModel::GpuEpochTimeQilin(double nnz) const {
  if (nnz <= 0.0) return 0.0;
  return qilin_a + qilin_b * nnz;
}

double HsgdCostModel::GpuEpochTimeOurs(double nnz, int blocks,
                                       double rows_per_block) const {
  if (nnz <= 0.0) return 0.0;
  if (blocks < 1) blocks = 1;
  const double block_nnz = nnz / blocks;
  const int w = std::max(1, gpu_workers);
  // Kernel stream: every block pays the launch plus its (possibly
  // underfilled) SIMT sweep.
  const double iters = std::ceil(block_nnz / w);
  const double kernel_stream =
      blocks * (gpu_launch + iters * gpu_worker_point_time);
  // Transfer stream: ratings plus traveling row factors, per block.
  const double block_in_bytes =
      block_nnz * rating_bytes + rows_per_block * factor_bytes;
  const double in_stream =
      blocks * (pcie_latency + block_in_bytes / pcie_in_bps);
  const double block_out_bytes = rows_per_block * factor_bytes;
  const double out_stream =
      blocks * (pcie_latency + block_out_bytes / pcie_out_bps);
  // Eq. 9: overlapped streams bound the epoch; the first block's H2D is
  // the pipeline fill.
  const double fill = pcie_latency + block_in_bytes / pcie_in_bps;
  return std::max(kernel_stream, std::max(in_stream, out_stream)) + fill;
}

double HsgdCostModel::DecideAlpha(CostModelKind kind,
                                  const AlphaQuery& query) const {
  const double n = static_cast<double>(query.epoch_nnz);
  if (n <= 0.0) return 0.5;
  const int ng = std::max(1, query.num_gpus);
  const int strata = std::max(1, query.row_strata);
  const int cpu_stripes = std::max(1, query.num_cpu_stripes);
  const double rows_per_block =
      static_cast<double>(query.num_rows) / strata;

  const int gpu_blocks = strata * std::max(1, query.stripes_per_gpu);
  auto gpu_time = [&](double alpha) {
    const double share = alpha * n / ng;  // per-GPU share
    if (kind == CostModelKind::kQilin) return GpuEpochTimeQilin(share);
    return GpuEpochTimeOurs(share, gpu_blocks, rows_per_block);
  };
  auto cpu_time = [&](double alpha) {
    const double share = (1.0 - alpha) * n;
    const double block_nnz = share / (cpu_stripes * strata);
    return CpuEpochTime(share, query.num_cpu_threads, block_nnz);
  };

  // g(alpha) = gpu_time - cpu_time is increasing in alpha; bisect the root.
  double lo = 0.0, hi = 1.0;
  for (int iter = 0; iter < 60; ++iter) {
    double mid = 0.5 * (lo + hi);
    if (gpu_time(mid) > cpu_time(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  double alpha = 0.5 * (lo + hi);
  return std::min(0.98, std::max(0.02, alpha));
}

Profiler::Profiler(const GpuDeviceSpec& gpu, const CpuDeviceSpec& cpu,
                   int k)
    : gpu_(gpu), cpu_(cpu), k_(k > 0 ? k : 1) {}

StatusOr<HsgdCostModel> Profiler::BuildHsgdModel(const Dataset& ds) const {
  if (ds.train.empty()) {
    return Status::FailedPrecondition(
        "cannot profile an empty dataset: no training ratings");
  }
  if (ds.num_rows <= 0 || ds.num_cols <= 0) {
    return Status::InvalidArgument("dataset has empty dimensions");
  }

  HsgdCostModel m;
  m.gpu_workers = std::max(1, gpu_.parallel_workers);
  m.rating_bytes = static_cast<double>(GpuDevice::RatingBytes());
  m.factor_bytes = static_cast<double>(k_) * 4.0;

  // CPU probes: a small and a large timed block recover the steady rate
  // and the warm-up knee (rate(b) = R * b / (b + w): two equations, two
  // unknowns in 1/rate space).
  CpuDevice cpu(cpu_, k_);
  const int64_t n = ds.train_size();
  {
    const double b1 = 500.0, b2 = 200000.0;
    const double u1 = 1.0 / cpu.UpdateRate(static_cast<int64_t>(b1));
    const double u2 = 1.0 / cpu.UpdateRate(static_cast<int64_t>(b2));
    const double w_over_r = (u1 - u2) / (1.0 / b1 - 1.0 / b2);
    const double inv_r = u2 - w_over_r / b2;
    m.cpu_rate =
        inv_r > 0.0 ? 1.0 / inv_r : cpu.UpdateRate(static_cast<int64_t>(b2));
    m.cpu_warmup_nnz = std::max(0.0, w_over_r * m.cpu_rate);
  }

  // Probe blocks are prefixes of the training set, so their row/column
  // footprint shrinks proportionally with the carved size.
  auto probe_item = [&](int64_t nnz) {
    GpuWorkItem item;
    item.nnz = nnz;
    item.rows = std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(ds.num_rows) * nnz / n));
    item.cols = std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(ds.num_cols) * nnz / n));
    return item;
  };

  // Qilin fit: two timed runs on a *non-pipelined* device (transfer and
  // kernel serialized), a straight line through the two points.
  {
    const int64_t x1 = std::max<int64_t>(1, n / 32);
    const int64_t x2 = std::max<int64_t>(x1 + 1, n / 8);
    GpuDevice probe(gpu_, k_, /*pipelined=*/false);
    PipelineTiming t1 = probe.Process(0.0, probe_item(x1));
    double m1 = t1.d2h_done - t1.h2d_start;
    PipelineTiming t2 = probe.Process(t1.d2h_done, probe_item(x2));
    double m2 = t2.d2h_done - t2.h2d_start;
    m.qilin_b = (m2 - m1) / static_cast<double>(x2 - x1);
    m.qilin_a = m1 - m.qilin_b * static_cast<double>(x1);
    if (m.qilin_a < 0.0) m.qilin_a = 0.0;
  }

  // Our fit: recover the effective per-iteration time from two *large*
  // kernel-only probes — both deep in the asymptotic regime, so the
  // slope reflects whichever of compute or memory bandwidth actually
  // binds at this W (a small/large pair would straddle the regimes and
  // blend their slopes) — then the launch overhead from a one-iteration
  // probe against that slope.
  {
    SimtKernelModel kernel(gpu_, k_);
    const double iters_1 = 1024.0, iters_2 = 8192.0;
    const double t_1 =
        kernel.ExecTime(static_cast<int64_t>(iters_1) * m.gpu_workers, 0, 0);
    const double t_2 =
        kernel.ExecTime(static_cast<int64_t>(iters_2) * m.gpu_workers, 0, 0);
    m.gpu_worker_point_time = (t_2 - t_1) / (iters_2 - iters_1);
    const double t_small = kernel.ExecTime(m.gpu_workers, 0, 0);
    m.gpu_launch = t_small - m.gpu_worker_point_time;
    if (m.gpu_launch < 0.0) m.gpu_launch = 0.0;

    PcieLink link(gpu_);
    const int64_t mb = 1 << 20;
    m.pcie_latency = link.TransferTime(1, TransferDirection::kHostToDevice);
    m.pcie_in_bps =
        static_cast<double>(64 * mb) /
        (link.TransferTime(64 * mb, TransferDirection::kHostToDevice) -
         m.pcie_latency);
    m.pcie_out_bps =
        static_cast<double>(64 * mb) /
        (link.TransferTime(64 * mb, TransferDirection::kDeviceToHost) -
         m.pcie_latency);
  }

  return m;
}

}  // namespace hsgd
