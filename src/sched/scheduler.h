// Scheduler vocabulary and the shared stratum-locking core, which is
// also the epoch's lease ledger: every block is handed out as a lease,
// recorded with its holder until Release or RevokeLease consumes it.
//
// Safety contract (the DSGD exclusivity invariant): between Acquire and
// Release, a task owns its row stratum and its column stratum; the
// scheduler never hands a *different* worker a task sharing either, so
// concurrent blocks touch disjoint model factors and SGD needs no factor
// locks. The one sanctioned overlap: a worker may hold two blocks of its
// own column stripe (StarScheduler's GPU pipelining — the device keeps
// the stripe's column factors resident and serializes its kernels, so
// the overlap never races on factors).

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "sched/blocked_matrix.h"
#include "util/rng.h"

namespace hsgd {

enum class DeviceClass { kCpuThread = 0, kGpu = 1 };

struct WorkerInfo {
  DeviceClass device_class = DeviceClass::kCpuThread;
  /// Index of the device within its class (CPU thread id / GPU id).
  int device_index = 0;
  /// Global worker id assigned by the trainer.
  int worker_index = 0;
};

struct BlockTask {
  int block = -1;
  int row = -1;
  int col = -1;
  int64_t nnz = 0;
  /// True when the block came from another device class's region
  /// (HSGD*'s dynamic phase).
  bool stolen = false;
  /// worker_index of the lease's holder, stamped by TakeBlock.
  int worker = -1;
  /// Monotonically increasing lease id stamped by TakeBlock. A lease
  /// stays outstanding until Release or RevokeLease consumes it; a
  /// revoked lease's later Release must be dropped by the caller
  /// (checked via LeaseOutstanding) so its updates are never applied.
  int64_t lease = -1;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Reset per-epoch state: the non-empty blocks of `subset` (block
  /// indices; null = every block) become pending, everything else starts
  /// the epoch done. The incremental-training path passes the blocks that
  /// received appended ratings. Policy schedulers derive runnability from
  /// the shared done bits. Outstanding (unreleased) tasks must not span
  /// epochs.
  void BeginEpoch(const std::vector<int>* subset = nullptr);

  /// Short policy name for reports and metrics ("star", "uniform").
  virtual const char* name() const = 0;

  /// Hand `worker` a runnable block, or nullopt when nothing is
  /// available (epoch drained, or every candidate's stratum is
  /// momentarily locked — retry after the next Release).
  virtual std::optional<BlockTask> Acquire(const WorkerInfo& worker) = 0;

  /// Consume the task's lease and return its strata to the pool (the
  /// block was marked done when it was taken).
  void Release(const BlockTask& task);

  /// True while `lease` was issued and neither Released nor revoked.
  /// The session checks this before applying a block's SGD updates at
  /// release time, which is what makes revocation double-apply-safe.
  bool LeaseOutstanding(int64_t lease) const {
    return lease >= 0 && outstanding_.count(lease) != 0;
  }

  /// Take back a lease whose holder died or blew its deadline: unlock
  /// the strata and return the block to the pending pool. A block is
  /// requeued at most once — a second revocation drops it for the rest
  /// of the epoch, so a wedged block can't spin forever. Returns true
  /// when the block was requeued, false when it was dropped (the caller
  /// tallies both). No-op (false) if the lease is no longer outstanding.
  bool RevokeLease(const BlockTask& task);

  /// The outstanding leases `worker_index` holds, in issue order. A dead
  /// device's leases are revoked in this order, so its recovery replays
  /// deterministically.
  std::vector<BlockTask> LeasesHeldBy(int worker_index) const;

  /// Tell the scheduler a worker is gone for good; it must stop routing
  /// that worker's home region to it. Base implementation is a no-op —
  /// pool schedulers have no per-worker regions.
  virtual void MarkWorkerDead(const WorkerInfo& worker) { (void)worker; }

  /// True once every non-empty block was processed and released.
  bool EpochDone() const { return remaining_ == 0 && in_flight_ == 0; }

  int num_blocks() const { return matrix_->num_blocks(); }
  /// Non-empty blocks not yet taken this epoch (the denominator for
  /// fraction-of-epoch fault triggers when read right after BeginEpoch).
  int remaining_blocks() const { return remaining_; }
  int64_t stolen_by_gpus() const { return stolen_by_gpus_; }
  int64_t stolen_by_cpus() const { return stolen_by_cpus_; }

  /// Checkpoint hooks: the policy RNG and steal tallies are the only
  /// scheduler state that survives an epoch boundary (strata locks and
  /// done bits reset in BeginEpoch), so persisting them plus rebuilding
  /// the scheduler from config reproduces it exactly.
  RngState rng_state() const { return rng_.SaveState(); }
  void set_rng_state(const RngState& state) { rng_.RestoreState(state); }
  void set_steal_counters(int64_t by_gpus, int64_t by_cpus) {
    stolen_by_gpus_ = by_gpus;
    stolen_by_cpus_ = by_cpus;
  }

 protected:
  Scheduler(const BlockedMatrix* matrix, const Grid* grid, Rng rng);

  bool BlockRunnable(int row, int col) const;
  /// Locks strata, flags `stolen` bookkeeping and records the lease with
  /// its holder; returns the filled task.
  BlockTask TakeBlock(const WorkerInfo& worker, int row, int col,
                      bool stolen);

  const BlockedMatrix* matrix_;
  const Grid* grid_;
  /// Policy RNG shared by the concrete schedulers (held here so the
  /// session checkpointer can reach it through the base pointer).
  Rng rng_;
  /// Hold counts per stratum (a column can be held twice, but only by
  /// the same worker — see col_owner_).
  std::vector<int> row_busy_;
  std::vector<int> col_busy_;
  /// worker_index currently holding each busy column stratum.
  std::vector<int> col_owner_;
  std::vector<char> done_;
  /// Pending (not done) blocks per column stratum: kept beside done_ by
  /// BeginEpoch, TakeBlock and RevokeLease's requeue, the only writers
  /// of done_, so a policy reads a stripe's backlog without a scan.
  std::vector<int> col_pending_;
  int remaining_ = 0;
  int in_flight_ = 0;
  int64_t stolen_by_gpus_ = 0;
  int64_t stolen_by_cpus_ = 0;
  /// Lease bookkeeping: every outstanding lease by id, which is issue
  /// order. `requeued_` marks blocks already given their one second
  /// chance this epoch.
  std::map<int64_t, BlockTask> outstanding_;
  int64_t next_lease_ = 0;
  std::vector<char> requeued_;
};

}  // namespace hsgd
