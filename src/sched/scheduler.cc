#include "sched/scheduler.h"

#include "util/logging.h"

namespace hsgd {

Scheduler::Scheduler(const BlockedMatrix* matrix, const Grid* grid, Rng rng)
    : matrix_(matrix), grid_(grid), rng_(rng) {
  HSGD_CHECK(matrix != nullptr && grid != nullptr);
  row_busy_.assign(static_cast<size_t>(grid->num_row_strata()), 0);
  col_busy_.assign(static_cast<size_t>(grid->num_col_strata()), 0);
  col_owner_.assign(static_cast<size_t>(grid->num_col_strata()), -1);
  done_.assign(static_cast<size_t>(grid->num_blocks()), 0);
  col_pending_.assign(static_cast<size_t>(grid->num_col_strata()), 0);
}

void Scheduler::BeginEpoch(const std::vector<int>* subset) {
  HSGD_CHECK(in_flight_ == 0) << "BeginEpoch with tasks still in flight";
  remaining_ = 0;
  // Empty blocks and blocks outside `subset` start the epoch done.
  done_.assign(static_cast<size_t>(matrix_->num_blocks()), 1);
  col_pending_.assign(col_pending_.size(), 0);
  auto make_pending = [this](int b) {
    if (matrix_->BlockNnz(b) > 0 && done_[static_cast<size_t>(b)]) {
      done_[static_cast<size_t>(b)] = 0;
      ++col_pending_[static_cast<size_t>(b % grid_->num_col_strata())];
      ++remaining_;
    }
  };
  if (subset == nullptr) {
    for (int b = 0; b < matrix_->num_blocks(); ++b) make_pending(b);
  } else {
    for (int b : *subset) {
      HSGD_CHECK(b >= 0 && b < matrix_->num_blocks());
      make_pending(b);
    }
  }
  outstanding_.clear();
  requeued_.assign(static_cast<size_t>(matrix_->num_blocks()), 0);
}

bool Scheduler::BlockRunnable(int row, int col) const {
  if (row_busy_[static_cast<size_t>(row)] != 0 ||
      col_busy_[static_cast<size_t>(col)] != 0) {
    return false;
  }
  return !done_[static_cast<size_t>(grid_->BlockIndex(row, col))];
}

BlockTask Scheduler::TakeBlock(const WorkerInfo& worker, int row, int col,
                               bool stolen) {
  BlockTask task;
  task.row = row;
  task.col = col;
  task.block = grid_->BlockIndex(row, col);
  task.nnz = matrix_->BlockNnz(task.block);
  task.stolen = stolen;
  task.worker = worker.worker_index;
  ++row_busy_[static_cast<size_t>(row)];
  ++col_busy_[static_cast<size_t>(col)];
  col_owner_[static_cast<size_t>(col)] = worker.worker_index;
  done_[static_cast<size_t>(task.block)] = 1;
  --col_pending_[static_cast<size_t>(col)];
  --remaining_;
  ++in_flight_;
  task.lease = next_lease_++;
  outstanding_.emplace(task.lease, task);
  if (stolen) {
    if (worker.device_class == DeviceClass::kGpu) {
      stolen_by_gpus_ += task.nnz;
    } else {
      stolen_by_cpus_ += task.nnz;
    }
  }
  return task;
}

void Scheduler::Release(const BlockTask& task) {
  HSGD_CHECK(task.row >= 0 && task.col >= 0);
  HSGD_CHECK(row_busy_[static_cast<size_t>(task.row)] > 0 &&
             col_busy_[static_cast<size_t>(task.col)] > 0)
      << "release of a task whose strata are not locked";
  --row_busy_[static_cast<size_t>(task.row)];
  --col_busy_[static_cast<size_t>(task.col)];
  if (col_busy_[static_cast<size_t>(task.col)] == 0) {
    col_owner_[static_cast<size_t>(task.col)] = -1;
  }
  --in_flight_;
  outstanding_.erase(task.lease);
}

bool Scheduler::RevokeLease(const BlockTask& task) {
  if (!LeaseOutstanding(task.lease)) return false;
  Release(task);
  const size_t b = static_cast<size_t>(task.block);
  if (requeued_[b]) return false;  // second failure: drop it this epoch
  requeued_[b] = 1;
  done_[b] = 0;  // pending again; any worker may re-acquire it
  ++col_pending_[static_cast<size_t>(task.col)];
  ++remaining_;
  return true;
}

std::vector<BlockTask> Scheduler::LeasesHeldBy(int worker_index) const {
  std::vector<BlockTask> held;
  for (const auto& [lease, task] : outstanding_) {
    if (task.worker == worker_index) held.push_back(task);
  }
  return held;
}

}  // namespace hsgd
