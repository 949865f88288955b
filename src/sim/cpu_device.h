// Simulated CPU thread (Observation 2, Fig. 3b): per-thread SGD update
// speed is essentially flat in block size, with only a mild cache warm-up
// penalty on tiny blocks, and scales inversely with the rank k.

#pragma once

#include <cstdint>

#include "core/types.h"
#include "sim/device_health.h"
#include "sim/device_spec.h"

namespace hsgd {

class CpuDevice {
 public:
  CpuDevice(const CpuDeviceSpec& spec, int k);

  /// Points/second one thread sustains on a block of `nnz` points.
  double UpdateRate(int64_t nnz) const;

  /// Seconds one thread needs to sweep a block of `nnz` points.
  /// Health-blind — cost probes and lease-deadline estimates use this.
  SimTime UpdateTime(int64_t nnz) const;

  /// UpdateTime scaled by health().SlowdownAt(now), accrued into the
  /// thread's busy-time accounting — what the event loop charges a
  /// possibly-degraded thread when the block actually runs. Identical to
  /// UpdateTime while healthy; the accumulator is never read back by the
  /// simulation.
  SimTime ChargeAt(SimTime now, int64_t nnz) {
    const SimTime t = UpdateTime(nnz) * health_.SlowdownAt(now);
    busy_seconds_ += t;
    return t;
  }

  /// Virtual seconds this thread has spent sweeping blocks (lifetime).
  double busy_seconds() const { return busy_seconds_; }

  const DeviceHealth& health() const { return health_; }
  void set_health(const DeviceHealth& health) { health_ = health; }

 private:
  CpuDeviceSpec spec_;
  double steady_rate_;  // k- and variability-adjusted flat rate
  DeviceHealth health_;
  double busy_seconds_ = 0.0;
};

}  // namespace hsgd
