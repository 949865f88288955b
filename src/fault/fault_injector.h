// Deterministic firing engine for a FaultPlan.
//
// The session polls the injector at epoch start and after every block
// release; a spec fires exactly once, when the run first reaches its
// (epoch, release-fraction) trigger point. Because the trigger is
// counted in *released blocks* — a quantity the discrete-event trace
// makes identical for a given seed — the same plan fires at the same
// point of the same trace on every machine and thread count.

#pragma once

#include <cmath>
#include <vector>

#include "fault/fault_plan.h"

namespace hsgd {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan)
      : plan_(std::move(plan)), fired_(plan_.specs.size(), 0) {}

  /// Arm the injector for an epoch. `blocks_total` is the number of
  /// non-empty blocks the epoch will release (the denominator for
  /// at_fraction triggers).
  void BeginEpoch(int epoch, int blocks_total) {
    epoch_ = epoch;
    blocks_total_ = blocks_total;
  }

  /// Returns the device-fault specs newly triggered now that
  /// `blocks_released` blocks of the current epoch have been released,
  /// in plan order.
  std::vector<const FaultSpec*> Poll(int blocks_released) {
    std::vector<const FaultSpec*> fired;
    for (size_t i = 0; i < plan_.specs.size(); ++i) {
      const FaultSpec& spec = plan_.specs[i];
      if (fired_[i]) continue;
      if (epoch_ < spec.epoch) continue;
      if (epoch_ == spec.epoch) {
        const int threshold = static_cast<int>(
            std::ceil(spec.at_fraction * blocks_total_));
        if (blocks_released < threshold) continue;
      }
      // epoch_ > spec.epoch: the trigger point is in the past (e.g. the
      // run was restored beyond it); fire immediately rather than never.
      fired_[i] = 1;
      fired.push_back(&spec);
    }
    return fired;
  }

 private:
  FaultPlan plan_;
  std::vector<char> fired_;
  int epoch_ = 0;
  int blocks_total_ = 0;
};

}  // namespace hsgd
