#include <algorithm>
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


/// A test-local copy of StarScheduler's policy that counts a stripe's
/// pending blocks by scanning its row strata, and scans a stripe for a
/// runnable row whatever its backlog. Given the same calls as a
/// StarScheduler, it must pick the same block on every Acquire.
class ScanningStar {
 public:
  struct Pick {
    int row = -1;
    int col = -1;
    bool stolen = false;
  };

  ScanningStar(const Grid& grid, const BlockedMatrix& matrix,
               StarSchedulerOptions options)
      : grid_(grid), matrix_(matrix), options_(options) {
    row_busy_.assign(static_cast<size_t>(grid.num_row_strata()), 0);
    col_busy_.assign(static_cast<size_t>(grid.num_col_strata()), 0);
    col_owner_.assign(static_cast<size_t>(grid.num_col_strata()), -1);
    orphaned_.assign(static_cast<size_t>(grid.num_col_strata()), 0);
  }

  void BeginEpoch(const std::vector<int>* subset) {
    done_.assign(static_cast<size_t>(grid_.num_blocks()), 1);
    requeued_.assign(static_cast<size_t>(grid_.num_blocks()), 0);
    remaining_ = 0;
    for (int b = 0; b < grid_.num_blocks(); ++b) {
      const bool listed =
          subset == nullptr ||
          std::find(subset->begin(), subset->end(), b) != subset->end();
      if (listed && matrix_.BlockNnz(b) > 0) {
        done_[static_cast<size_t>(b)] = 0;
        ++remaining_;
      }
    }
  }

  int remaining() const { return remaining_; }

  void Release(const BlockTask& task) {
    --row_busy_[static_cast<size_t>(task.row)];
    if (--col_busy_[static_cast<size_t>(task.col)] == 0) {
      col_owner_[static_cast<size_t>(task.col)] = -1;
    }
  }

  bool Revoke(const BlockTask& task) {
    Release(task);
    const size_t b = static_cast<size_t>(task.block);
    if (requeued_[b]) return false;
    requeued_[b] = 1;
    done_[b] = 0;
    ++remaining_;
    return true;
  }

  void MarkWorkerDead(const WorkerInfo& worker) {
    if (worker.device_class != DeviceClass::kGpu) return;
    const int spg = options_.stripes_per_gpu;
    const int first = (worker.device_index * spg) % options_.num_gpu_stripes;
    for (int i = 0; i < spg && first + i < options_.num_gpu_stripes; ++i) {
      orphaned_[static_cast<size_t>(first + i)] = 1;
      have_orphans_ = true;
    }
  }

  /// The block StarScheduler::Acquire picks, taken as it takes it.
  std::optional<Pick> Acquire(const WorkerInfo& worker) {
    std::optional<Pick> pick = Choose(worker);
    if (pick.has_value()) {
      ++row_busy_[static_cast<size_t>(pick->row)];
      ++col_busy_[static_cast<size_t>(pick->col)];
      col_owner_[static_cast<size_t>(pick->col)] = worker.worker_index;
      done_[static_cast<size_t>(grid_.BlockIndex(pick->row, pick->col))] = 1;
      --remaining_;
    }
    return pick;
  }

 private:
  int StripeOf(const WorkerInfo& worker) const {
    if (worker.device_class == DeviceClass::kGpu) {
      return (worker.device_index * options_.stripes_per_gpu) %
             options_.num_gpu_stripes;
    }
    return options_.num_gpu_stripes +
           worker.device_index % options_.num_cpu_stripes;
  }

  bool Done(int row, int stripe) const {
    return done_[static_cast<size_t>(grid_.BlockIndex(row, stripe))] != 0;
  }

  int FindRunnableRow(int stripe) const {
    const int p = grid_.num_row_strata();
    const int offset = (stripe * 131) % p;
    for (int i = 0; i < p; ++i) {
      const int row = (offset + i) % p;
      if (row_busy_[static_cast<size_t>(row)] == 0 && !Done(row, stripe)) {
        return row;
      }
    }
    return -1;
  }

  int StripePending(int stripe) const {
    int pending = 0;
    for (int row = 0; row < grid_.num_row_strata(); ++row) {
      if (!Done(row, stripe)) ++pending;
    }
    return pending;
  }

  int PickStripe(int begin, int end, int skip, bool orphans_only,
                 int* row) const {
    int best_stripe = -1, best_pending = 0;
    for (int stripe = begin; stripe < end; ++stripe) {
      if (stripe == skip) continue;
      if (orphans_only && !orphaned_[static_cast<size_t>(stripe)]) continue;
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

  std::optional<Pick> Choose(const WorkerInfo& worker) const {
    if (remaining_ == 0) return std::nullopt;
    const bool is_gpu = worker.device_class == DeviceClass::kGpu;
    const int gpu_end = options_.num_gpu_stripes;
    const int q = grid_.num_col_strata();
    const int spg = options_.stripes_per_gpu;
    if (is_gpu) {
      const int first = StripeOf(worker);
      for (int pass = 0; pass < 2; ++pass) {
        for (int i = 0; i < spg; ++i) {
          const int stripe = first + i;
          const int holds = col_busy_[static_cast<size_t>(stripe)];
          const bool eligible =
              pass == 0 ? (holds == 1 &&
                           col_owner_[static_cast<size_t>(stripe)] ==
                               worker.worker_index)
                        : holds == 0;
          if (!eligible) continue;
          const int row = FindRunnableRow(stripe);
          if (row >= 0) return Pick{row, stripe, false};
        }
      }
    } else {
      const int home = StripeOf(worker);
      if (col_busy_[static_cast<size_t>(home)] == 0) {
        const int row = FindRunnableRow(home);
        if (row >= 0) return Pick{row, home, false};
      }
      int row = -1;
      const int stripe = PickStripe(gpu_end, q, home, false, &row);
      if (stripe >= 0) return Pick{row, stripe, false};
    }
    if (have_orphans_) {
      int row = -1;
      const int stripe = PickStripe(0, gpu_end, -1, true, &row);
      if (stripe >= 0) return Pick{row, stripe, true};
    }
    if (!options_.dynamic) return std::nullopt;
    if (!is_gpu && !options_.allow_cpu_steals) return std::nullopt;
    const int own_begin = is_gpu ? worker.device_index * spg : gpu_end;
    const int own_end = is_gpu ? own_begin + spg : q;
    for (int stripe = own_begin; stripe < own_end; ++stripe) {
      if (StripePending(stripe) > 0) return std::nullopt;
    }
    const int victim_begin = is_gpu ? gpu_end : 0;
    const int victim_end = is_gpu ? q : gpu_end;
    int victim_pending = 0;
    for (int stripe = victim_begin; stripe < victim_end; ++stripe) {
      victim_pending += StripePending(stripe);
    }
    if (victim_pending <= victim_end - victim_begin) return std::nullopt;
    int row = -1;
    const int stripe = PickStripe(victim_begin, victim_end, -1, false, &row);
    if (stripe >= 0) return Pick{row, stripe, true};
    return std::nullopt;
  }

  const Grid& grid_;
  const BlockedMatrix& matrix_;
  StarSchedulerOptions options_;
  std::vector<int> row_busy_;
  std::vector<int> col_busy_;
  std::vector<int> col_owner_;
  std::vector<char> done_;
  std::vector<char> requeued_;
  std::vector<char> orphaned_;
  bool have_orphans_ = false;
  int remaining_ = 0;
};

// Seeded random runs of Acquire, Release, RevokeLease and MarkWorkerDead
// on one GPU with two resident stripes beside a CPU pool with a spare
// stripe, over full and subset epochs: every Acquire must pick what the
// scanning reference picks (most of them come back empty, which is what
// the pending counts make cheap).
void TestStarMatchesScanningReference() {
  const int32_t rows = 300, cols = 300;
  const Ratings ratings = RandomRatings(12000, rows, cols, 29);
  const std::vector<double> shares = {0.25, 0.25, 0.125, 0.125, 0.125,
                                      0.125};
  auto grid = BuildGridWithColShares(ratings, rows, cols, 5, shares);
  EXPECT_TRUE(grid.ok());
  if (!grid.ok()) return;
  auto matrix = BlockedMatrix::Build(ratings, *grid, nullptr);
  EXPECT_TRUE(matrix.ok());
  if (!matrix.ok()) return;
  std::vector<WorkerInfo> workers;
  for (int t = 0; t < 3; ++t) {
    workers.push_back({DeviceClass::kCpuThread, t, t});
  }
  workers.push_back({DeviceClass::kGpu, 0, 3});
  const WorkerInfo gpu = workers.back();

  int64_t picks = 0, steals = 0, empties = 0, revokes = 0, deaths = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    StarSchedulerOptions options;
    options.num_gpu_stripes = 2;
    options.num_cpu_stripes = 4;
    options.stripes_per_gpu = 2;
    options.dynamic = seed % 4 != 0;
    options.allow_cpu_steals = seed % 3 != 0;
    StarScheduler scheduler(&*matrix, &*grid, options, Rng(seed));
    ScanningStar reference(*grid, *matrix, options);
    Rng rng(seed, 7);
    bool gpu_alive = true;
    std::vector<BlockTask> held;

    auto acquire = [&](const WorkerInfo& w) {
      const std::optional<BlockTask> task = scheduler.Acquire(w);
      const std::optional<ScanningStar::Pick> want = reference.Acquire(w);
      EXPECT_EQ(task.has_value(), want.has_value());
      if (task.has_value() && want.has_value()) {
        EXPECT_EQ(task->row, want->row);
        EXPECT_EQ(task->col, want->col);
        EXPECT_EQ(task->stolen, want->stolen);
        EXPECT_EQ(task->block, grid->BlockIndex(want->row, want->col));
      }
      if (task.has_value()) {
        held.push_back(*task);
        ++picks;
        if (task->stolen) ++steals;
      } else {
        ++empties;
      }
      EXPECT_EQ(scheduler.remaining_blocks(), reference.remaining());
    };
    auto take_held = [&](size_t i) {
      const BlockTask task = held[i];
      held.erase(held.begin() + static_cast<long>(i));
      return task;
    };

    for (int epoch = 0; epoch < 4; ++epoch) {
      std::vector<int> subset;
      const bool full = epoch % 2 == 0;
      if (!full) {
        for (int b = 0; b < grid->num_blocks(); ++b) {
          if (rng.UniformInt(5) < 2) subset.push_back(b);
        }
        if (!subset.empty()) subset.push_back(subset.front());  // a repeat
      }
      scheduler.BeginEpoch(full ? nullptr : &subset);
      reference.BeginEpoch(full ? nullptr : &subset);
      EXPECT_EQ(scheduler.remaining_blocks(), reference.remaining());

      for (int step = 0; step < 400 && !scheduler.EpochDone(); ++step) {
        const uint64_t action = rng.UniformInt(20);
        if (action < 12) {
          const WorkerInfo& w = workers[rng.UniformInt(workers.size())];
          if (w.device_class == DeviceClass::kGpu && !gpu_alive) continue;
          acquire(w);
        } else if (action < 18) {
          if (held.empty()) continue;
          const BlockTask task = take_held(rng.UniformInt(held.size()));
          scheduler.Release(task);
          reference.Release(task);
        } else if (action < 19) {
          if (held.empty()) continue;
          const BlockTask task = take_held(rng.UniformInt(held.size()));
          EXPECT_EQ(scheduler.RevokeLease(task), reference.Revoke(task));
          EXPECT_FALSE(scheduler.RevokeLease(task));  // already consumed
          ++revokes;
        } else if (gpu_alive && seed % 2 == 0 && epoch > 0 &&
                   rng.UniformInt(8) == 0) {
          // The GPU dies in half the runs, after its first epoch. The
          // session revokes a dead device's leases in issue order, then
          // retires it.
          for (const BlockTask& task : scheduler.LeasesHeldBy(gpu.worker_index)) {
            EXPECT_EQ(scheduler.RevokeLease(task), reference.Revoke(task));
            held.erase(std::find_if(held.begin(), held.end(),
                                    [&](const BlockTask& h) {
                                      return h.lease == task.lease;
                                    }));
          }
          scheduler.MarkWorkerDead(gpu);
          reference.MarkWorkerDead(gpu);
          gpu_alive = false;
          ++deaths;
        }
        EXPECT_EQ(scheduler.remaining_blocks(), reference.remaining());
      }
      // Drain: release what is held, then let every live worker take and
      // release in turn. The cap turns a stuck epoch into a failure.
      for (int round = 0; round < 4 * grid->num_blocks(); ++round) {
        while (!held.empty()) {
          const BlockTask task = take_held(0);
          scheduler.Release(task);
          reference.Release(task);
        }
        if (scheduler.EpochDone()) break;
        for (const WorkerInfo& w : workers) {
          if (w.device_class == DeviceClass::kGpu && !gpu_alive) continue;
          acquire(w);
        }
      }
      EXPECT_TRUE(scheduler.EpochDone());
      EXPECT_EQ(reference.remaining(), 0);
    }
  }
  // The runs exercised every path the counts touch.
  EXPECT_LT(1000, picks);
  EXPECT_LT(50, steals);
  EXPECT_LT(1000, empties);
  EXPECT_LT(100, revokes);
  EXPECT_LT(2, deaths);
}

}  // namespace

void RunAllTests() {
  TestUniformSchedulerCoverage();
  TestSingleWorkerDrain();
  TestStarOwnStripePreference();
  TestStarStaticIdlesWhenDrained();
  TestStarDynamicSteals();
  TestLeaseLedger();
  TestStarMatchesScanningReference();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
