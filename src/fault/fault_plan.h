// Scripted, deterministic fault plans for the simulated fleet.
//
// A FaultPlan is a list of fault events, each pinned to an (epoch,
// fraction-of-blocks-released) point in the run so that a given plan +
// seed reproduces the exact same failure trace on any machine or thread
// count. The text syntax (one event per `;`-separated clause):
//
//   crash:gpu0@e3+0.5        kill GPU 0 when epoch 3 is 50% released
//   crash:cpu2@e2            kill CPU thread 2 at the start of epoch 2
//   slow:gpu1@e2+0.25x8for0.5  8x slowdown for 0.5 sim-seconds
//   slow:cpu0@e1x16          16x slowdown for the rest of the run
//   link:gpu0@e2+0.1n4       next 4 PCIe transfers on GPU 0's link fail
//
// `@eN` is the 1-based epoch, `+F` the release fraction within it
// (default 0 = epoch start). `x` is the slowdown factor, `for` the
// degraded window in simulated seconds (omitted = permanent), `n` a
// count of transfers to fail. Numbers are plain decimal (`3`,
// `0.25`, `1e-3`) with no sign, space, hex, inf or nan; doubles must be
// finite and integers must fit in an int.
//
// Serve/stream kinds extend the grammar to the online path. Their
// trigger clock is the PUBLISH ROUND of the serve loop (`@rN`, 1-based —
// the train kinds' epoch field, reinterpreted), their durations count
// rounds, and they are fired by fault/serve_injector.h, never by the
// session (Session::SetFaultPlan rejects them):
//
//   poison@r3n2              poison the snapshots published in rounds
//                            3..4 (NaN factors; n = publishes, default 1)
//   walio@r2n4               next 4 WAL appends fail, starting round 2
//   storm@r4x8for2           8x client load for rounds 4..5
//   slowshard:1@r5x16for3    serve shard 1 stalls 16x for rounds 5..7

#pragma once

#include <string>
#include <vector>

#include "core/types.h"
#include "sched/scheduler.h"
#include "util/status.h"

namespace hsgd {

enum class FaultKind {
  kGpuCrash = 0,
  kCpuCrash = 1,
  kStraggler = 2,     // transient (or permanent) slowdown
  kLinkFault = 3,     // next `count` PCIe transfers fail-and-retry
  // Serve/stream kinds (round-triggered; see file comment).
  kPublishPoison = 4,  // next `count` published snapshots carry NaNs
  kWalIo = 5,          // next `count` WAL appends fail
  kQueryStorm = 6,     // client load multiplied for a round window
  kSlowShard = 7,      // one serve shard stalls for a round window
};

/// True for the kinds fired by the serve-loop injector
/// (fault/serve_injector.h) rather than the training session.
bool IsServeFault(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kGpuCrash;
  /// Target device (unused for the serve kinds — except kSlowShard,
  /// which reads device_index as the shard).
  DeviceClass device_class = DeviceClass::kGpu;
  int device_index = 0;
  /// 1-based epoch (train kinds) or publish round (serve kinds) the
  /// fault arms in.
  int epoch = 1;
  /// Fires once this fraction of the epoch's blocks have been released
  /// (0.0 = epoch start). Train kinds only.
  double at_fraction = 0.0;
  /// kStraggler / kQueryStorm / kSlowShard: multiplicative factor (> 1).
  double slowdown = 8.0;
  /// kStraggler: degraded window in sim-seconds; kQueryStorm /
  /// kSlowShard: window in publish rounds. <= 0 means permanent.
  double duration = 0.0;
  /// kLinkFault / kWalIo / kPublishPoison: how many operations fail (or
  /// publishes are poisoned).
  int count = 1;

  std::string ToString() const;
};

struct FaultPlan {
  std::vector<FaultSpec> specs;

  bool empty() const { return specs.empty(); }
  std::string ToString() const;

  /// Parse the `;`-separated clause syntax above. Whitespace around
  /// clauses is ignored; an empty string yields an empty plan.
  static StatusOr<FaultPlan> Parse(const std::string& text);
};

}  // namespace hsgd
