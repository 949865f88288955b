// HSGD*'s nonuniform-division scheduler (Sections V-VI).
//
// The column axis is divided into device-class regions: one stripe per
// GPU (together alpha of the nnz mass, as decided by the cost model, kept
// resident in that GPU's memory) and a pool of stripes for the CPU
// threads (the rest). Big blocks keep the GPU's SIMT array saturated;
// small blocks keep CPU threads cheap. Since stripes are disjoint in
// columns, concurrent workers only ever contend on row strata.
//
// The CPU pool deliberately holds more stripes than threads: a stripe
// whose column is momentarily locked can be bypassed (threads roam their
// class region), and — crucially — an idle GPU can steal from a *free*
// stripe, adding real parallelism instead of displacing the stripe's
// owner. Two blocks of one stripe share a column stratum and can never
// run concurrently, so stealing from a busy stripe is always zero-sum.
//
// Dynamic phase: a worker whose class region is drained steals runnable
// blocks from the most-backlogged free stripe of the other class (the
// cross-device rebalancing Table III measures); steals are tallied in
// stolen_by_gpus()/stolen_by_cpus().

#pragma once

#include "sched/scheduler.h"

namespace hsgd {

struct StarSchedulerOptions {
  /// Column stripes 0..num_gpu_stripes-1 belong to GPUs (stripes_per_gpu
  /// consecutive stripes each), the rest form the CPU pool. Must sum to
  /// the grid's column stratum count; num_cpu_stripes may exceed the CPU
  /// thread count (spare stripes).
  int num_gpu_stripes = 1;
  int num_cpu_stripes = 1;
  /// A GPU with 2+ resident stripes works one at a time, which leaves the
  /// others stealable — without this, a lagging GPU's region is locked
  /// continuously and idle CPUs could never rebalance toward it.
  int stripes_per_gpu = 1;
  /// Enable the dynamic work-stealing phase (full HSGD*). When off, a
  /// worker with a drained class region idles until the epoch ends
  /// (HSGD*-M).
  bool dynamic = true;
  /// Whether idle CPU threads may steal from GPU stripes. The trainer
  /// disables this when the PCIe round-trip for a stripe's resident
  /// column factors dwarfs the block sweep itself — stealing would slow
  /// the epoch down, not rescue it.
  bool allow_cpu_steals = true;
};

class StarScheduler : public Scheduler {
 public:
  StarScheduler(const BlockedMatrix* matrix, const Grid* grid,
                StarSchedulerOptions options, Rng rng);

  const char* name() const override { return "star"; }

  std::optional<BlockTask> Acquire(const WorkerInfo& worker) override;

  /// A dead GPU's resident stripes become orphans: nobody's home region,
  /// rescueable by any surviving worker (even under HSGD*-M, where the
  /// ordinary steal gates stay closed). Dead CPU threads need no
  /// handling — the pool stripes were always shared.
  void MarkWorkerDead(const WorkerInfo& worker) override;

  /// The worker's home stripe: a GPU's resident stripe, or the CPU
  /// thread's preferred pool stripe (CPU threads roam the pool when their
  /// home stripe is locked or drained).
  int StripeOf(const WorkerInfo& worker) const;

 private:
  /// Runnable row in `stripe`, scanning from the stripe's rotating
  /// offset; -1 when none.
  int FindRunnableRow(int stripe) const;
  /// Blocks of `stripe` not yet taken this epoch.
  int StripePending(int stripe) const {
    return col_pending_[static_cast<size_t>(stripe)];
  }
  /// Most-backlogged free stripe in [begin, end) other than `skip` (and,
  /// when `orphans_only`, orphaned) with a runnable block; fills *row,
  /// returns the stripe or -1. Ties go to the lowest stripe.
  int PickStripe(int begin, int end, int skip, bool orphans_only,
                 int* row) const;

  StarSchedulerOptions options_;
  /// Stripes whose owner GPU died; sticky across epochs (device death is
  /// permanent within a run).
  std::vector<char> stripe_orphaned_;
  bool have_orphans_ = false;
};

}  // namespace hsgd
