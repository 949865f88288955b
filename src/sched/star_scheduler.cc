#include "sched/star_scheduler.h"

#include "util/logging.h"

namespace hsgd {

StarScheduler::StarScheduler(const BlockedMatrix* matrix, const Grid* grid,
                             StarSchedulerOptions options, Rng rng)
    : Scheduler(matrix, grid, rng), options_(options) {
  HSGD_CHECK(options_.num_gpu_stripes + options_.num_cpu_stripes ==
             grid->num_col_strata())
      << "stripe counts (" << options_.num_gpu_stripes << " gpu + "
      << options_.num_cpu_stripes << " cpu) must match grid columns "
      << grid->num_col_strata();
  stripe_orphaned_.assign(static_cast<size_t>(grid->num_col_strata()), 0);
}

void StarScheduler::MarkWorkerDead(const WorkerInfo& worker) {
  if (worker.device_class != DeviceClass::kGpu) return;
  const int spg = options_.stripes_per_gpu;
  const int first =
      (worker.device_index * spg) % options_.num_gpu_stripes;
  for (int i = 0; i < spg && first + i < options_.num_gpu_stripes; ++i) {
    stripe_orphaned_[static_cast<size_t>(first + i)] = 1;
    have_orphans_ = true;
  }
}

int StarScheduler::StripeOf(const WorkerInfo& worker) const {
  if (worker.device_class == DeviceClass::kGpu) {
    return (worker.device_index * options_.stripes_per_gpu) %
           options_.num_gpu_stripes;
  }
  return options_.num_gpu_stripes +
         worker.device_index % options_.num_cpu_stripes;
}

int StarScheduler::FindRunnableRow(int stripe) const {
  // A stripe with nothing pending has no runnable row: most Acquire
  // calls that come back empty ask exactly that of every stripe.
  if (StripePending(stripe) == 0) return -1;
  const int p = grid_->num_row_strata();
  // Rotating start decorrelates workers that would otherwise all chase
  // row stratum 0 at epoch start. Column availability is the caller's
  // responsibility (the home path may legally see its own held column).
  const int offset = (stripe * 131) % p;
  for (int i = 0; i < p; ++i) {
    const int row = (offset + i) % p;
    if (row_busy_[static_cast<size_t>(row)] == 0 &&
        !done_[static_cast<size_t>(grid_->BlockIndex(row, stripe))]) {
      return row;
    }
  }
  return -1;
}

int StarScheduler::PickStripe(int begin, int end, int skip,
                              bool orphans_only, int* row) const {
  int best_stripe = -1, best_pending = 0;
  for (int stripe = begin; stripe < end; ++stripe) {
    if (stripe == skip) continue;
    if (orphans_only && !stripe_orphaned_[static_cast<size_t>(stripe)]) {
      continue;
    }
    if (col_busy_[static_cast<size_t>(stripe)]) continue;
    const int pending = StripePending(stripe);
    if (pending <= best_pending) continue;
    const int found = FindRunnableRow(stripe);
    if (found < 0) continue;
    best_stripe = stripe;
    best_pending = pending;
    *row = found;
  }
  return best_stripe;
}

std::optional<BlockTask> StarScheduler::Acquire(const WorkerInfo& worker) {
  if (remaining_ == 0) return std::nullopt;
  const bool is_gpu = worker.device_class == DeviceClass::kGpu;
  const int gpu_end = options_.num_gpu_stripes;
  const int q = grid_->num_col_strata();

  // 1) Home stripes: the static (cost-model) assignment. A GPU works its
  // resident stripes one at a time — continuing the stripe it currently
  // holds first (up to two blocks there: the depth-2 pipeline that
  // overlaps the next block's H2D copy with the running kernel, safe
  // because the stripe's column factors live on the device and its
  // kernels are serialized), then opening a fresh own stripe. Finishing
  // stripes in sequence rather than round-robin keeps the rest of the
  // GPU's region free for CPU thieves should the GPU fall behind.
  if (is_gpu) {
    const int first = StripeOf(worker);
    const int spg = options_.stripes_per_gpu;
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i < spg; ++i) {
        const int stripe = first + i;
        const int holds = col_busy_[static_cast<size_t>(stripe)];
        const bool eligible =
            pass == 0
                ? (holds == 1 && col_owner_[static_cast<size_t>(stripe)] ==
                                     worker.worker_index)
                : holds == 0;
        if (!eligible) continue;
        const int row = FindRunnableRow(stripe);
        if (row >= 0) return TakeBlock(worker, row, stripe, false);
      }
    }
  } else {
    // CPU threads: preferred stripe first, then roam the shared pool
    // (not a steal — spare stripes exist precisely so nobody waits on a
    // lock).
    const int home = StripeOf(worker);
    if (col_busy_[static_cast<size_t>(home)] == 0) {
      const int row = FindRunnableRow(home);
      if (row >= 0) return TakeBlock(worker, row, home, /*stolen=*/false);
    }
    int row = -1;
    const int stripe =
        PickStripe(gpu_end, q, home, /*orphans_only=*/false, &row);
    if (stripe >= 0) return TakeBlock(worker, row, stripe, false);
  }
  // 1.5) Orphan rescue: a dead GPU's stripes are nobody's home region
  // any more, so any worker may sweep them — ahead of (and exempt from)
  // the dynamic-phase gates below, since even HSGD*-M must not strand
  // their blocks. Free, most-backlogged orphan first.
  if (have_orphans_) {
    int row = -1;
    const int stripe =
        PickStripe(0, gpu_end, -1, /*orphans_only=*/true, &row);
    if (stripe >= 0) return TakeBlock(worker, row, stripe, /*stolen=*/true);
  }
  if (!options_.dynamic) return std::nullopt;
  if (!is_gpu && !options_.allow_cpu_steals) return std::nullopt;

  // 2) Dynamic phase: steal from the other class's region — but only
  // once this worker's own region is truly drained. A momentary row or
  // column lock is not idleness: the pending block will free up within
  // one block-time, while a steal commits this worker (at the wrong
  // speed) for a whole foreign block and locks its stripe out from under
  // the rightful class.
  const int spg = options_.stripes_per_gpu;
  const int own_begin = is_gpu ? worker.device_index * spg : gpu_end;
  const int own_end = is_gpu ? own_begin + spg : q;
  for (int stripe = own_begin; stripe < own_end; ++stripe) {
    if (StripePending(stripe) > 0) return std::nullopt;
  }
  // The victim region must still have a real backlog — more pending
  // blocks than stripes, i.e. at least a full round beyond what its own
  // workers already have in hand. Tail blocks are left alone: a thief is
  // slower per foreign block (launch overhead, cold factors), and
  // grabbing the last ones can push the epoch's finish line out instead
  // of pulling it in.
  const int victim_begin = is_gpu ? gpu_end : 0;
  const int victim_end = is_gpu ? q : gpu_end;
  int victim_pending = 0;
  for (int stripe = victim_begin; stripe < victim_end; ++stripe) {
    victim_pending += StripePending(stripe);
  }
  if (victim_pending <= victim_end - victim_begin) return std::nullopt;
  // Only free stripes qualify — two blocks of one stripe share a column
  // stratum and can never run concurrently, so raiding a busy stripe
  // would just displace its owner (zero-sum); a free one adds
  // parallelism.
  int row = -1;
  const int stripe = PickStripe(victim_begin, victim_end, -1,
                                /*orphans_only=*/false, &row);
  if (stripe >= 0) return TakeBlock(worker, row, stripe, /*stolen=*/true);
  return std::nullopt;
}

}  // namespace hsgd
