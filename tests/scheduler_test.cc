#include <optional>
#include <set>
#include <vector>

#include "sched/star_scheduler.h"
#include "sched/uniform_scheduler.h"
#include "test_main.h"

namespace hsgd {
namespace {

Ratings RandomRatings(int64_t nnz, int32_t rows, int32_t cols,
                      uint64_t seed) {
  Rng rng(seed);
  Ratings out;
  out.reserve(static_cast<size_t>(nnz));
  for (int64_t i = 0; i < nnz; ++i) {
    out.push_back({static_cast<int32_t>(rng.UniformInt(rows)),
                   static_cast<int32_t>(rng.UniformInt(cols)),
                   rng.NextFloat()});
  }
  return out;
}

/// Drives `scheduler` with `workers` greedy virtual workers and checks the
/// exclusivity invariant on every set of concurrently-held tasks.
void DriveEpochCheckingExclusivity(Scheduler* scheduler,
                                   const std::vector<WorkerInfo>& workers,
                                   std::vector<int>* block_counts) {
  scheduler->BeginEpoch();
  std::vector<std::optional<BlockTask>> held(workers.size());
  bool progress = true;
  while (!scheduler->EpochDone()) {
    EXPECT_TRUE(progress);  // otherwise the scheduler deadlocked
    if (!progress) return;
    progress = false;
    // Fill every idle worker.
    for (size_t w = 0; w < workers.size(); ++w) {
      if (held[w].has_value()) continue;
      held[w] = scheduler->Acquire(workers[w]);
      if (held[w].has_value()) progress = true;
    }
    // Exclusivity: no two outstanding tasks share a stratum.
    std::set<int> rows_held, cols_held;
    for (const auto& task : held) {
      if (!task.has_value()) continue;
      EXPECT_TRUE(rows_held.insert(task->row).second);
      EXPECT_TRUE(cols_held.insert(task->col).second);
    }
    // Release in worker order.
    for (size_t w = 0; w < workers.size(); ++w) {
      if (!held[w].has_value()) continue;
      ++(*block_counts)[static_cast<size_t>(held[w]->block)];
      scheduler->Release(*held[w]);
      held[w].reset();
      progress = true;
    }
  }
}

void TestUniformSchedulerCoverage() {
  const int32_t rows = 300, cols = 300;
  Ratings ratings = RandomRatings(20000, rows, cols, 11);
  auto grid = BuildBalancedGrid(ratings, rows, cols, 5, 5);
  EXPECT_TRUE(grid.ok());
  Rng rng(2);
  auto matrix = BlockedMatrix::Build(ratings, *grid, &rng);
  EXPECT_TRUE(matrix.ok());

  UniformScheduler scheduler(&*matrix, &*grid, Rng(5));
  std::vector<WorkerInfo> workers;
  for (int t = 0; t < 4; ++t) {
    workers.push_back({DeviceClass::kCpuThread, t, t});
  }
  for (int epoch = 0; epoch < 3; ++epoch) {
    std::vector<int> counts(static_cast<size_t>(matrix->num_blocks()), 0);
    DriveEpochCheckingExclusivity(&scheduler, workers, &counts);
    // Every non-empty block processed exactly once per epoch.
    for (int b = 0; b < matrix->num_blocks(); ++b) {
      EXPECT_EQ(counts[static_cast<size_t>(b)],
                matrix->BlockNnz(b) > 0 ? 1 : 0);
    }
  }
}

void TestSingleWorkerDrain() {
  const int32_t rows = 100, cols = 100;
  Ratings ratings = RandomRatings(5000, rows, cols, 13);
  auto grid = BuildBalancedGrid(ratings, rows, cols, 3, 4);
  auto matrix = BlockedMatrix::Build(ratings, *grid, nullptr);
  EXPECT_TRUE(matrix.ok());
  UniformScheduler scheduler(&*matrix, &*grid, Rng(1));
  WorkerInfo solo{DeviceClass::kCpuThread, 0, 0};
  scheduler.BeginEpoch();
  int drained = 0;
  while (auto task = scheduler.Acquire(solo)) {
    scheduler.Release(*task);
    ++drained;
  }
  EXPECT_TRUE(scheduler.EpochDone());
  int non_empty = 0;
  for (int b = 0; b < matrix->num_blocks(); ++b) {
    non_empty += matrix->BlockNnz(b) > 0 ? 1 : 0;
  }
  EXPECT_EQ(drained, non_empty);
}

struct StarFixture {
  Ratings ratings;
  StatusOr<Grid> grid = Status::Internal("unset");
  StatusOr<BlockedMatrix> matrix = Status::Internal("unset");
  std::vector<WorkerInfo> workers;
  StarSchedulerOptions options;

  explicit StarFixture(int num_gpus = 1, int num_cpus = 3) {
    const int32_t rows = 400, cols = 400;
    ratings = RandomRatings(30000, rows, cols, 21);
    std::vector<double> shares;
    double alpha = 0.5;
    for (int g = 0; g < num_gpus; ++g) shares.push_back(alpha / num_gpus);
    for (int t = 0; t < num_cpus; ++t) {
      shares.push_back((1.0 - alpha) / num_cpus);
    }
    grid = BuildGridWithColShares(ratings, rows, cols, num_gpus + num_cpus,
                                  shares);
    EXPECT_TRUE(grid.ok());
    matrix = BlockedMatrix::Build(ratings, *grid, nullptr);
    EXPECT_TRUE(matrix.ok());
    int idx = 0;
    for (int t = 0; t < num_cpus; ++t) {
      workers.push_back({DeviceClass::kCpuThread, t, idx++});
    }
    for (int g = 0; g < num_gpus; ++g) {
      workers.push_back({DeviceClass::kGpu, g, idx++});
    }
    options.num_gpu_stripes = num_gpus;
    options.num_cpu_stripes = num_cpus;
  }
};

void TestStarOwnStripePreference() {
  StarFixture f;
  f.options.dynamic = true;
  StarScheduler scheduler(&*f.matrix, &*f.grid, f.options, Rng(3));
  std::vector<int> counts(static_cast<size_t>(f.matrix->num_blocks()), 0);
  DriveEpochCheckingExclusivity(&scheduler, f.workers, &counts);
  for (int b = 0; b < f.matrix->num_blocks(); ++b) {
    EXPECT_EQ(counts[static_cast<size_t>(b)],
              f.matrix->BlockNnz(b) > 0 ? 1 : 0);
  }

  // A fresh epoch: a worker's first (non-stolen) acquire is in its stripe.
  scheduler.BeginEpoch();
  for (const WorkerInfo& w : f.workers) {
    auto task = scheduler.Acquire(w);
    EXPECT_TRUE(task.has_value());
    EXPECT_FALSE(task->stolen);
    EXPECT_EQ(task->col, scheduler.StripeOf(w));
    scheduler.Release(*task);
  }
}

void TestStarStaticIdlesWhenDrained() {
  StarFixture f;
  f.options.dynamic = false;
  StarScheduler scheduler(&*f.matrix, &*f.grid, f.options, Rng(3));
  scheduler.BeginEpoch();
  const WorkerInfo& gpu = f.workers.back();
  // Drain the GPU stripe completely.
  while (auto task = scheduler.Acquire(gpu)) {
    EXPECT_EQ(task->col, scheduler.StripeOf(gpu));
    scheduler.Release(*task);
  }
  // Static division: CPU work remains but the GPU gets nothing.
  EXPECT_FALSE(scheduler.EpochDone());
  EXPECT_FALSE(scheduler.Acquire(gpu).has_value());
  EXPECT_EQ(scheduler.stolen_by_gpus(), 0);
}

void TestStarDynamicSteals() {
  StarFixture f;
  f.options.dynamic = true;
  StarScheduler scheduler(&*f.matrix, &*f.grid, f.options, Rng(3));
  scheduler.BeginEpoch();
  const WorkerInfo& gpu = f.workers.back();
  int own = 0, stolen = 0;
  // A lone greedy GPU drains its own stripe, then steals from the CPU
  // pool while the pool's backlog exceeds one block per stripe (the
  // anti-straggler threshold deliberately leaves the tail to the owners).
  while (auto task = scheduler.Acquire(gpu)) {
    task->stolen ? ++stolen : ++own;
    scheduler.Release(*task);
  }
  EXPECT_TRUE(own > 0);
  EXPECT_TRUE(stolen > 0);
  EXPECT_TRUE(scheduler.stolen_by_gpus() > 0);
  EXPECT_EQ(scheduler.stolen_by_cpus(), 0);
  EXPECT_FALSE(scheduler.EpochDone());
  int leftovers = 0;
  for (const WorkerInfo& w : f.workers) {
    if (w.device_class == DeviceClass::kGpu) continue;
    while (auto task = scheduler.Acquire(w)) {
      EXPECT_FALSE(task->stolen);
      scheduler.Release(*task);
      ++leftovers;
    }
  }
  // The owners mop up the protected tail (at most one block per stripe
  // survived the stealing phase) and the epoch completes.
  EXPECT_TRUE(leftovers > 0);
  EXPECT_LE(leftovers, f.options.num_cpu_stripes);
  EXPECT_TRUE(scheduler.EpochDone());
}

// The lease ledger without a simulator: a GPU with two leases on its
// stripe (the pipelined case a GPU crash revokes), revocation that
// requeues a block once and drops it the second time, and a drained
// epoch that hands every other block out exactly once.
void TestLeaseLedger() {
  StarFixture f;
  StarScheduler scheduler(&*f.matrix, &*f.grid, f.options, Rng(3));
  scheduler.BeginEpoch();
  const WorkerInfo& cpu = f.workers.front();
  const WorkerInfo& gpu = f.workers.back();
  std::vector<int> handed(static_cast<size_t>(f.matrix->num_blocks()), 0);
  auto acquire = [&](const WorkerInfo& w) {
    auto task = scheduler.Acquire(w);
    if (task.has_value()) ++handed[static_cast<size_t>(task->block)];
    return task;
  };
  auto leases_of = [&](const WorkerInfo& w) {
    std::vector<int64_t> leases;
    for (const BlockTask& t : scheduler.LeasesHeldBy(w.worker_index)) {
      EXPECT_EQ(t.worker, w.worker_index);
      leases.push_back(t.lease);
    }
    return leases;
  };

  const auto a = acquire(gpu);
  const auto c = acquire(cpu);
  const auto b = acquire(gpu);
  EXPECT_TRUE(a.has_value() && b.has_value() && c.has_value());
  if (!a.has_value() || !b.has_value() || !c.has_value()) return;
  EXPECT_EQ(a->col, b->col);  // both on the GPU's resident stripe
  EXPECT_TRUE(leases_of(gpu) == (std::vector<int64_t>{a->lease, b->lease}));
  EXPECT_TRUE(leases_of(cpu) == std::vector<int64_t>{c->lease});

  const int remaining = scheduler.remaining_blocks();
  EXPECT_TRUE(scheduler.RevokeLease(*a));
  EXPECT_FALSE(scheduler.LeaseOutstanding(a->lease));
  EXPECT_EQ(scheduler.remaining_blocks(), remaining + 1);
  EXPECT_FALSE(scheduler.RevokeLease(*a));  // already consumed: a no-op
  EXPECT_EQ(scheduler.remaining_blocks(), remaining + 1);
  EXPECT_TRUE(leases_of(gpu) == std::vector<int64_t>{b->lease});
  scheduler.Release(*c);
  EXPECT_TRUE(leases_of(cpu).empty());
  scheduler.Release(*b);

  // Drain with every worker, revoking a's block whenever it comes back.
  // The cap turns a requeue-forever bug into a failure, not a hang.
  for (int round = 0;
       round < f.matrix->num_blocks() && !scheduler.EpochDone(); ++round) {
    for (const WorkerInfo& w : f.workers) {
      const auto task = acquire(w);
      if (!task.has_value()) continue;
      if (task->block == a->block) {
        EXPECT_FALSE(scheduler.RevokeLease(*task));  // second failure
      } else {
        scheduler.Release(*task);
      }
    }
  }
  EXPECT_TRUE(scheduler.EpochDone());
  for (int blk = 0; blk < f.matrix->num_blocks(); ++blk) {
    const int once = f.matrix->BlockNnz(blk) > 0 ? 1 : 0;
    EXPECT_EQ(handed[static_cast<size_t>(blk)], blk == a->block ? 2 : once);
  }
}

}  // namespace

void RunAllTests() {
  TestUniformSchedulerCoverage();
  TestSingleWorkerDrain();
  TestStarOwnStripePreference();
  TestStarStaticIdlesWhenDrained();
  TestStarDynamicSteals();
  TestLeaseLedger();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
