// Deterministic firing engine for the serve/stream half of a FaultPlan.
//
// The training-side FaultInjector counts released blocks; the serve loop
// has no such clock, so this injector counts PUBLISH ROUNDS instead: the
// driver calls BeginRound(r) once per iteration of its
// ingest -> train -> publish loop, and every serve fault is pinned to a
// round. Same plan + same round sequence => same failure trace, which is
// what lets bench_chaos_serving gate on exact counts (publishes rejected
// == poisons scripted, and so on).
//
// Firing surfaces, by kind:
//   kPublishPoison  PoisonThisPublish() — the trainer's publisher
//                   swaps in a NaN-poisoned snapshot for the next
//                   `count` publishes from the armed round on.
//   kWalIo          ConsumeWalFault() — wired to Wal::SetIoFaultHook; the
//                   next `count` appends fail cleanly (retryable).
//   kQueryStorm     LoadMultiplier() — client threads scale their offered
//                   load while a storm window is active.
//   kSlowShard      ShardSlowdown(shard) — the server's batch-stall hook
//                   stretches that shard's service time while active.
//
// Single-driver discipline like OnlineTrainer: BeginRound /
// PoisonThisPublish / ConsumeWalFault run on the driver thread. The two
// read-side queries (LoadMultiplier, ShardSlowdown) are called from
// client/worker threads, so the round counter they derive from is
// atomic.

#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "fault/fault_plan.h"
#include "util/status.h"

namespace hsgd {

class ServeFaultInjector {
 public:
  /// Validates that `plan` holds ONLY serve kinds and that slowshard
  /// targets lie in [0, `shards`), the server's shard count.
  static StatusOr<std::unique_ptr<ServeFaultInjector>> Create(
      const FaultPlan& plan, int shards);

  /// Arm the injector for publish round `round` (1-based, monotone).
  void BeginRound(int round) {
    round_.store(round, std::memory_order_release);
  }

  /// True (consuming one poison) when the snapshot published now should
  /// be poisoned. Each kPublishPoison spec supplies `count` consecutive
  /// poisoned publishes starting at its round.
  bool PoisonThisPublish() { return Consume(FaultKind::kPublishPoison); }

  /// True (consuming one failure) when a WAL append attempted now should
  /// fail. Shaped for Wal::SetIoFaultHook.
  bool ConsumeWalFault() { return Consume(FaultKind::kWalIo); }

  /// Product of every active storm's factor (1.0 = no storm). A storm is
  /// active for rounds [round, round + duration) — duration <= 0 means
  /// the rest of the run.
  double LoadMultiplier() const;

  /// Max slowdown factor among slowshard specs active on `shard`
  /// (1.0 = healthy).
  double ShardSlowdown(int shard) const;

  int64_t poisons_fired() const { return poisons_fired_; }
  int64_t wal_faults_fired() const { return wal_faults_fired_; }

 private:
  explicit ServeFaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  bool Consume(FaultKind kind);
  bool WindowActive(const FaultSpec& spec, int round) const {
    if (round < spec.epoch) return false;
    if (spec.duration <= 0.0) return true;
    return round < spec.epoch + static_cast<int>(spec.duration);
  }

  FaultPlan plan_;
  std::atomic<int> round_{0};
  int64_t poisons_fired_ = 0;
  int64_t wal_faults_fired_ = 0;
};

}  // namespace hsgd
