#include "sched/uniform_scheduler.h"

namespace hsgd {

UniformScheduler::UniformScheduler(const BlockedMatrix* matrix,
                                   const Grid* grid, Rng rng)
    : Scheduler(matrix, grid, rng) {}

std::optional<BlockTask> UniformScheduler::Acquire(
    const WorkerInfo& worker) {
  if (remaining_ == 0) return std::nullopt;
  const int p = grid_->num_row_strata();
  const int q = grid_->num_col_strata();

  // Reservoir-sample one runnable block so each candidate is equally
  // likely without materializing the candidate list.
  int pick_row = -1, pick_col = -1;
  int64_t seen = 0;
  for (int row = 0; row < p; ++row) {
    if (row_busy_[static_cast<size_t>(row)]) continue;
    for (int col = 0; col < q; ++col) {
      if (!BlockRunnable(row, col)) continue;
      ++seen;
      if (rng_.UniformInt(seen) == 0) {
        pick_row = row;
        pick_col = col;
      }
    }
  }
  if (pick_row < 0) return std::nullopt;
  return TakeBlock(worker, pick_row, pick_col, /*stolen=*/false);
}

}  // namespace hsgd
