// PCIe transfer-time model (Fig. 6): a fixed per-transfer latency plus a
// bandwidth term, which yields the measured ramp — a few GB/s effective at
// 64KB, saturating at the link peak in the tens of MB.

#pragma once

#include <cstdint>

#include "core/types.h"
#include "sim/device_spec.h"

namespace hsgd {

enum class TransferDirection { kHostToDevice, kDeviceToHost };

class PcieLink {
 public:
  explicit PcieLink(const GpuDeviceSpec& spec);

  /// Seconds to move `bytes` in `dir`; zero bytes cost nothing. Health-
  /// blind — cost-model probes and deadline estimates call this freely
  /// without consuming injected faults.
  SimTime TransferTime(int64_t bytes, TransferDirection dir) const;

  /// bytes / TransferTime, in GB/s — what Fig. 6 plots.
  double EffectiveBandwidthGbps(int64_t bytes, TransferDirection dir) const;

  /// Fault injection: the next `count` transfers each fail once and are
  /// retried — the caller of ConsumeFaultPenalty pays the failed
  /// attempt's wire time plus `detect_latency` (the timeout that flagged
  /// it) on top of the ordinary TransferTime.
  void InjectTransferFaults(int count, SimTime detect_latency);

  /// Extra seconds the next transfer of `bytes` costs; consumes one
  /// pending fault, or returns exactly 0.0 when the link is clean.
  SimTime ConsumeFaultPenalty(int64_t bytes, TransferDirection dir);

 private:
  double h2d_bytes_per_sec_;
  double d2h_bytes_per_sec_;
  double latency_;
  int pending_faults_ = 0;
  SimTime fault_detect_latency_ = 0.0;
};

}  // namespace hsgd
