// Device health vocabulary for the fault-tolerance layer (src/fault/).
//
// Every simulated compute device (CpuDevice, GpuDevice) carries a
// DeviceHealth that the FaultInjector mutates and the Session's event
// loop consults: a kDegraded device runs its work `slowdown` times
// slower until `degraded_until` on the virtual clock, and a kDead device
// never receives work again (its in-flight block leases are revoked and
// requeued on survivors).
//
// The default-constructed state is healthy with slowdown 1.0, and every
// timing path multiplies by SlowdownAt() unconditionally — multiplying
// by exactly 1.0 — so a fault-free run is bit-identical to a build that
// never heard of this header.

#pragma once

#include "core/types.h"

namespace hsgd {

enum class HealthState {
  kHealthy = 0,
  /// Running, but slower than its spec (straggler / thermal throttle /
  /// flaky link retries). Work keeps flowing unless the slowdown is bad
  /// enough that the scheduler benches the device (at 8x, the lease
  /// deadline factor; see kLeaseDeadlineFactor in core/session.cc).
  kDegraded = 1,
  /// Crashed or declared dead by the watchdog. Never scheduled again.
  kDead = 2,
};

struct DeviceHealth {
  HealthState state = HealthState::kHealthy;
  /// Processing-time multiplier while degraded (>= 1).
  double slowdown = 1.0;
  /// Virtual time the degradation clears (kSimTimeNever = rest of run).
  SimTime degraded_until = 0.0;

  bool dead() const { return state == HealthState::kDead; }

  /// The multiplier in effect at `now`: `slowdown` inside a degraded
  /// window, exactly 1.0 otherwise (so healthy timing is bit-identical
  /// to a health-blind computation).
  double SlowdownAt(SimTime now) const {
    if (state == HealthState::kDegraded && now < degraded_until) {
      return slowdown;
    }
    return 1.0;
  }
};

/// A degraded window starting at `now`; `duration` <= 0 means the rest
/// of the run.
inline DeviceHealth MakeDegraded(double slowdown, SimTime now,
                                 SimTime duration) {
  DeviceHealth h;
  h.state = HealthState::kDegraded;
  h.slowdown = slowdown;
  h.degraded_until = duration > 0.0 ? now + duration : kSimTimeNever;
  return h;
}

inline DeviceHealth MakeDead() {
  DeviceHealth h;
  h.state = HealthState::kDead;
  return h;
}

}  // namespace hsgd
