// Profiler-driven cost models (Section V of the paper, Table II).
//
// The Profiler "runs" probe blocks through the device simulators exactly
// the way a real profiler would time microbenchmarks, then fits two
// alternative GPU cost models:
//
//  - Qilin (HSGD*-Q): a linear T(x) = a + b*x fit through two probe sizes,
//    measured on a non-pipelined device — transfer and kernel summed
//    serially, saturation curvature ignored.
//  - Ours (HSGD*-M, Eq. 9): transfer and kernel modeled as separate
//    streams, per-epoch GPU time = max(stream totals) + pipeline fill,
//    with launch overhead and SIMT underfill modeled per block.
//
// HsgdCostModel::DecideAlpha equalizes the CPU-side and GPU-side epoch
// times under the chosen model and returns the GPU work fraction alpha.

#pragma once

#include <cstdint>

#include "core/dataset.h"
#include "sim/cpu_device.h"
#include "sim/gpu_device.h"
#include "util/status.h"

namespace hsgd {

enum class CostModelKind { kQilin = 0, kOurs = 1 };

/// Everything DecideAlpha needs to know about the planned execution.
struct AlphaQuery {
  int64_t epoch_nnz = 0;
  int num_cpu_threads = 1;
  int num_gpus = 1;
  int row_strata = 1;      // blocks per column stripe per epoch
  int stripes_per_gpu = 1; // resident column stripes per GPU
  int num_cpu_stripes = 1; // column stripes in the CPU pool
  int64_t num_rows = 0;    // matrix dims (factor-traffic estimate)
  int64_t num_cols = 0;
};

struct HsgdCostModel {
  // CPU side: steady per-thread rate (points/second) plus the small-block
  // warm-up knee, both recovered from two probe sizes.
  double cpu_rate = 6e6;
  double cpu_warmup_nnz = 0.0;

  // Qilin: GPU epoch-time ~= qilin_a + qilin_b * x for a share of x points.
  double qilin_a = 0.0;
  double qilin_b = 0.0;

  // Ours: explicit stream parameters recovered from probes.
  int gpu_workers = 128;
  double gpu_launch = 0.0;        // seconds per kernel launch
  double gpu_worker_point_time = 0.0;  // seconds/point for one worker
  double pcie_in_bps = 1.0;
  double pcie_out_bps = 1.0;
  double pcie_latency = 0.0;
  double rating_bytes = 12.0;
  double factor_bytes = 512.0;  // per factor vector (k * 4)

  /// `block_nnz` is the per-block granularity the share will be carved
  /// into — small blocks pay the warm-up knee on every sweep.
  double CpuEpochTime(double nnz, int threads, double block_nnz) const;
  double GpuEpochTimeQilin(double nnz) const;
  /// `blocks` kernel launches, `rows_per_block` row-factor vectors
  /// traveling with each block (column factors stripe-resident).
  double GpuEpochTimeOurs(double nnz, int blocks,
                          double rows_per_block) const;
  /// GPU work fraction equalizing both sides under `kind`, in [0.02, 0.98].
  double DecideAlpha(CostModelKind kind, const AlphaQuery& query) const;
};

class Profiler {
 public:
  Profiler(const GpuDeviceSpec& gpu, const CpuDeviceSpec& cpu, int k);

  /// Probe the simulated devices on blocks carved to `ds`'s shape and fit
  /// both cost models. Fails on an empty dataset.
  StatusOr<HsgdCostModel> BuildHsgdModel(const Dataset& ds) const;

 private:
  GpuDeviceSpec gpu_;
  CpuDeviceSpec cpu_;
  int k_;
};

}  // namespace hsgd
