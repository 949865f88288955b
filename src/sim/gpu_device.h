// Simulated GPU (Observation 1, Fig. 3a/7): a SIMT kernel-time model whose
// throughput saturates with block size, and a three-stage device pipeline
// (H2D copy -> kernel -> D2H copy) whose stages overlap across consecutive
// blocks when `pipelined` — the overlap the paper's Eq. 9 cost model
// (max of transfer and kernel streams) captures.

#pragma once

#include <cstdint>

#include "core/types.h"
#include "sim/device_health.h"
#include "sim/device_spec.h"
#include "sim/pcie_link.h"

namespace hsgd {

namespace obs {
class Tracer;  // obs/trace.h
}  // namespace obs

/// Kernel-only execution time: launch overhead + ceil(nnz/W) serial
/// iterations per worker + factor traffic from device memory. Throughput
/// nnz/ExecTime rises steeply while the W workers are underfilled and
/// flattens at W * worker_rate.
class SimtKernelModel {
 public:
  SimtKernelModel(const GpuDeviceSpec& spec, int k);

  SimTime ExecTime(int64_t nnz, int64_t rows, int64_t cols) const;

  /// Saturated points/second (the Fig. 3a plateau).
  double PeakRate() const { return peak_rate_; }

 private:
  GpuDeviceSpec spec_;
  int k_;
  double point_time_;  // seconds per point per worker at this k
  double peak_rate_;
};

/// One block's work as seen by the GPU: `rows`/`cols` are the number of
/// distinct row/column factors that must travel with it. Callers set
/// rows or cols to 0 for factors already resident in device memory (e.g.
/// the column stripe a GPU owns across a whole epoch under HSGD*).
struct GpuWorkItem {
  int64_t nnz = 0;
  int64_t rows = 0;
  int64_t cols = 0;
};

/// The device's only cross-epoch state: when each of the three pipeline
/// streams next becomes free. Persisted by the session checkpointer so a
/// restored run resumes with identical pipeline occupancy.
struct GpuStreamState {
  SimTime h2d_free = 0.0;
  SimTime kernel_free = 0.0;
  SimTime d2h_free = 0.0;
};

struct PipelineTiming {
  SimTime h2d_start = 0.0;
  SimTime h2d_done = 0.0;
  SimTime kernel_start = 0.0;
  SimTime kernel_done = 0.0;
  SimTime d2h_start = 0.0;
  SimTime d2h_done = 0.0;
  /// The span ready..d2h_done this block would have taken on a healthy
  /// device and a clean link — what the lease watchdog compares the real
  /// finish against. Equals (d2h_done - h2d_start) when no fault was in
  /// effect.
  SimTime healthy_span = 0.0;
};

class GpuDevice {
 public:
  GpuDevice(const GpuDeviceSpec& spec, int k, bool pipelined = true);

  /// Run one block through the copy/kernel/copy pipeline, starting no
  /// earlier than `ready`. Returns the stage timestamps; the block's
  /// updated factors are back on the host at d2h_done.
  PipelineTiming Process(SimTime ready, const GpuWorkItem& item);

  /// Charge a bare H2D transfer (e.g. uploading a resident column stripe
  /// at epoch start); returns its completion time.
  SimTime Upload(SimTime ready, int64_t bytes);

  /// Mutable link access for fault injection (transfer faults charge the
  /// retry inside Process/Upload).
  PcieLink& mutable_link() { return link_; }

  /// Fault-layer health: Process scales kernel time by
  /// health().SlowdownAt(kernel start); a dead device must never be
  /// given work (the session revokes its leases instead).
  const DeviceHealth& health() const { return health_; }
  void set_health(const DeviceHealth& health) { health_ = health; }

  /// Attach the epoch-timeline tracer; `tid` is this device's lane in
  /// the trace. Passive (emits h2d/kernel/d2h spans, reads nothing
  /// back); detached — the default — leaves Process bit-identical.
  void SetTrace(obs::Tracer* tracer, int tid) {
    tracer_ = tracer;
    trace_tid_ = tid;
  }

  /// Observability accounting, accumulated over the device's lifetime:
  /// virtual seconds the kernel stream was busy. Maintained
  /// unconditionally — a plain add on a value the simulation never reads
  /// back — and surfaced as a gauge by the session at each epoch barrier.
  double busy_seconds() const { return busy_seconds_; }

  GpuStreamState stream_state() const {
    return {h2d_free_, kernel_free_, d2h_free_};
  }
  void set_stream_state(const GpuStreamState& state) {
    h2d_free_ = state.h2d_free;
    kernel_free_ = state.kernel_free;
    d2h_free_ = state.d2h_free;
  }

  /// Host<->device bytes for a rating triple / one factor vector.
  static int64_t RatingBytes() { return 12; }
  int64_t FactorBytes() const { return static_cast<int64_t>(k_) * 4; }

 private:
  GpuDeviceSpec spec_;
  int k_;
  bool pipelined_;
  SimtKernelModel kernel_;
  PcieLink link_;
  DeviceHealth health_;
  SimTime h2d_free_ = 0.0;
  SimTime kernel_free_ = 0.0;
  SimTime d2h_free_ = 0.0;
  obs::Tracer* tracer_ = nullptr;  // borrowed; never owned
  int trace_tid_ = 0;
  double busy_seconds_ = 0.0;
};

}  // namespace hsgd
