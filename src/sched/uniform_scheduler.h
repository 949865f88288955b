// Uniform-division scheduler: HSGD's baseline policy (and the executor
// for CPU-Only / GPU-Only). Every worker — the GPU is just one more
// worker — draws a random runnable block from the shared p x q grid.

#pragma once

#include "sched/scheduler.h"

namespace hsgd {

class UniformScheduler : public Scheduler {
 public:
  UniformScheduler(const BlockedMatrix* matrix, const Grid* grid, Rng rng);

  const char* name() const override { return "uniform"; }

  std::optional<BlockTask> Acquire(const WorkerInfo& worker) override;
};

}  // namespace hsgd
