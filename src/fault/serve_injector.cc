#include "fault/serve_injector.h"

#include <memory>
#include <utility>

#include "util/strings.h"

namespace hsgd {

StatusOr<std::unique_ptr<ServeFaultInjector>> ServeFaultInjector::Create(
    const FaultPlan& plan, int shards) {
  for (const FaultSpec& spec : plan.specs) {
    if (!IsServeFault(spec.kind)) {
      return Status::InvalidArgument(StrFormat(
          "fault \"%s\" is a session kind; attach it via "
          "Session::SetFaultPlan",
          spec.ToString().c_str()));
    }
    if (spec.kind == FaultKind::kSlowShard && spec.device_index >= shards) {
      return Status::InvalidArgument(StrFormat(
          "fault \"%s\" targets shard %d but the server has %d shards",
          spec.ToString().c_str(), spec.device_index, shards));
    }
  }
  return std::unique_ptr<ServeFaultInjector>(
      new ServeFaultInjector(plan));
}

bool ServeFaultInjector::Consume(FaultKind kind) {
  const int round = round_.load(std::memory_order_acquire);
  for (FaultSpec& spec : plan_.specs) {
    if (spec.kind != kind || spec.count <= 0 || round < spec.epoch) {
      continue;
    }
    --spec.count;
    if (kind == FaultKind::kPublishPoison) ++poisons_fired_;
    if (kind == FaultKind::kWalIo) ++wal_faults_fired_;
    return true;
  }
  return false;
}

double ServeFaultInjector::LoadMultiplier() const {
  const int round = round_.load(std::memory_order_acquire);
  double factor = 1.0;
  for (const FaultSpec& spec : plan_.specs) {
    if (spec.kind == FaultKind::kQueryStorm && WindowActive(spec, round)) {
      factor *= spec.slowdown;
    }
  }
  return factor;
}

double ServeFaultInjector::ShardSlowdown(int shard) const {
  const int round = round_.load(std::memory_order_acquire);
  double factor = 1.0;
  for (const FaultSpec& spec : plan_.specs) {
    if (spec.kind == FaultKind::kSlowShard &&
        spec.device_index == shard && WindowActive(spec, round) &&
        spec.slowdown > factor) {
      factor = spec.slowdown;
    }
  }
  return factor;
}

}  // namespace hsgd
