// Hardware descriptions for the simulated devices. Numbers default to the
// paper's testbed shape: ~6M updates/s per CPU thread at k=128 (flat in
// block size, Fig. 3b), a GPU whose SIMT kernel saturates around 128M
// updates/s at W=128 (Fig. 3a / Fig. 7), and a PCIe 3.0 x16 link peaking
// near 12GB/s (Fig. 6).
//
// These defaults are the one place the testbed is written. A Session
// builds its devices from them plus the two values its HardwareConfig
// varies (the CPU rate and the GPU width W) and the per-run speed draw
// in speed_factor; the device simulators, the profiler and the Fig. 3/6
// benches use the structs directly.

#pragma once

namespace hsgd {

struct CpuDeviceSpec {
  /// Per-thread steady update rate at k=128 (points/second).
  double updates_per_sec_k128 = 6.0e6;
  /// Small-block cache warm-up: rate is scaled by nnz/(nnz+warmup_nnz).
  /// Kept small — Fig. 3b's observation is that CPU update speed is
  /// essentially flat in block size.
  double warmup_nnz = 50.0;
  /// Run-to-run speed multiplier (device variability; 1 = nominal).
  double speed_factor = 1.0;
};

struct GpuDeviceSpec {
  /// SIMT width the scheduler can fill (the paper's W).
  int parallel_workers = 128;
  /// Points/second a single worker sustains at k=128.
  double worker_point_rate_k128 = 1.0e6;
  /// Fixed kernel launch + epilogue overhead (seconds).
  double kernel_launch_overhead = 10e-6;
  /// On-device memory bandwidth for factor traffic (bytes/second).
  double device_mem_bw = 300e9;
  /// PCIe peak bandwidths by direction (GB/s) and per-transfer latency.
  double pcie_h2d_peak_gbps = 12.6;
  double pcie_d2h_peak_gbps = 12.1;
  double pcie_latency = 15e-6;
  /// Run-to-run speed multiplier (device variability; 1 = nominal).
  double speed_factor = 1.0;
};

}  // namespace hsgd
