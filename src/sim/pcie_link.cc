#include "sim/pcie_link.h"

namespace hsgd {

PcieLink::PcieLink(const GpuDeviceSpec& spec)
    : h2d_bytes_per_sec_(spec.pcie_h2d_peak_gbps * 1e9),
      d2h_bytes_per_sec_(spec.pcie_d2h_peak_gbps * 1e9),
      latency_(spec.pcie_latency) {}

SimTime PcieLink::TransferTime(int64_t bytes, TransferDirection dir) const {
  if (bytes <= 0) return 0.0;
  double bw = dir == TransferDirection::kHostToDevice ? h2d_bytes_per_sec_
                                                      : d2h_bytes_per_sec_;
  return latency_ + static_cast<double>(bytes) / bw;
}

double PcieLink::EffectiveBandwidthGbps(int64_t bytes,
                                        TransferDirection dir) const {
  if (bytes <= 0) return 0.0;
  return static_cast<double>(bytes) / TransferTime(bytes, dir) / 1e9;
}

void PcieLink::InjectTransferFaults(int count, SimTime detect_latency) {
  if (count <= 0) return;
  pending_faults_ += count;
  fault_detect_latency_ = detect_latency;
}

SimTime PcieLink::ConsumeFaultPenalty(int64_t bytes, TransferDirection dir) {
  if (pending_faults_ <= 0) return 0.0;
  --pending_faults_;
  // The failed attempt runs (some of) the wire before the timeout flags
  // it; charge a full retry worth of wire time plus the detection lag.
  return TransferTime(bytes, dir) + fault_detect_latency_;
}

}  // namespace hsgd
