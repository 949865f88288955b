#include "core/model.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <queue>
#include <utility>

#include "sched/blocked_matrix.h"
#include "util/logging.h"

namespace hsgd {

Model::Model(int32_t num_rows, int32_t num_cols, int k)
    : num_rows_(num_rows),
      num_cols_(num_cols),
      k_(k),
      stride_(PaddedStride(k)),
      row_capacity_(num_rows),
      col_capacity_(num_cols),
      p_(AllocateAlignedFloats(static_cast<size_t>(num_rows) * stride_)),
      q_(AllocateAlignedFloats(static_cast<size_t>(num_cols) * stride_)) {}

namespace {

// Shared by InitRandom and Grow so cold-start rows added later draw from
// the same range a fresh init would have used.
float InitRange(int k, double mean_rating) {
  if (mean_rating < 0.0) mean_rating = 0.0;
  float hi = 2.0f * std::sqrt(static_cast<float>(mean_rating) / k);
  if (!(hi > 0.0f)) {
    // An all-zero init can never train: every gradient is zero. Seed the
    // factors with a small positive range instead.
    constexpr float kInitFloor = 0.1f;
    HSGD_LOG(Warning) << "InitRandom: mean rating " << mean_rating
                      << " gives a degenerate init range; clamping to ["
                      << 0.0f << ", " << kInitFloor << ")";
    hi = kInitFloor;
  }
  return hi;
}

}  // namespace

void Model::InitRandom(Rng* rng, double mean_rating) {
  const float hi = InitRange(k_, mean_rating);
  // Fill only the logical k lanes of each row — the padding must stay
  // zero — drawing in the same row-major order as the dense layout so
  // seeds reproduce the same factors at any stride.
  for (int32_t u = 0; u < num_rows_; ++u) {
    float* row = Row(u);
    for (int i = 0; i < k_; ++i) row[i] = rng->NextFloat() * hi;
  }
  for (int32_t v = 0; v < num_cols_; ++v) {
    float* col = Col(v);
    for (int i = 0; i < k_; ++i) col[i] = rng->NextFloat() * hi;
  }
}

void Model::Grow(int32_t new_rows, int32_t new_cols, Rng* rng,
                 double mean_rating) {
  HSGD_CHECK(new_rows >= num_rows_ && new_cols >= num_cols_);
  if (new_rows == num_rows_ && new_cols == num_cols_) return;
  const float hi = InitRange(k_, mean_rating);
  // AllocateAlignedFloats zero-fills and nothing writes past the rows in
  // use, so the padding lanes of the new rows hold the kernel invariant
  // without an explicit pass; only the k logical lanes of each cold row
  // are drawn. Rows first, then cols, in the same order InitRandom fills,
  // so growth consumes the rng stream deterministically.
  auto grow = [&](AlignedFloatPtr* data, int32_t* rows, int32_t* capacity,
                  int32_t new_count) {
    if (new_count <= *rows) return;
    if (new_count > *capacity) {
      *capacity = static_cast<int32_t>(std::min<int64_t>(
          INT32_MAX, static_cast<int64_t>(new_count) + new_count / 8));
      AlignedFloatPtr grown =
          AllocateAlignedFloats(static_cast<size_t>(*capacity) * stride_);
      std::memcpy(grown.get(), data->get(),
                  sizeof(float) * static_cast<size_t>(*rows) * stride_);
      *data = std::move(grown);
    }
    for (int32_t r = *rows; r < new_count; ++r) {
      float* row = data->get() + static_cast<int64_t>(r) * stride_;
      for (int i = 0; i < k_; ++i) row[i] = rng->NextFloat() * hi;
    }
    *rows = new_count;
  };
  grow(&p_, &num_rows_, &row_capacity_, new_rows);
  grow(&q_, &num_cols_, &col_capacity_, new_cols);
}

float Model::Predict(int32_t u, int32_t v, const KernelOps* ops) const {
  const KernelOps& kernel = ops != nullptr ? *ops : DefaultKernelOps();
  return kernel.dot(Row(u), Col(v), k_);
}

std::vector<float> Model::DenseP() const {
  std::vector<float> dense(dense_p_size());
  for (int32_t u = 0; u < num_rows_; ++u) {
    std::memcpy(dense.data() + static_cast<size_t>(u) * k_, Row(u),
                sizeof(float) * static_cast<size_t>(k_));
  }
  return dense;
}

std::vector<float> Model::DenseQ() const {
  std::vector<float> dense(dense_q_size());
  for (int32_t v = 0; v < num_cols_; ++v) {
    std::memcpy(dense.data() + static_cast<size_t>(v) * k_, Col(v),
                sizeof(float) * static_cast<size_t>(k_));
  }
  return dense;
}

void Model::SetDense(const std::vector<float>& p,
                     const std::vector<float>& q) {
  HSGD_CHECK(p.size() == dense_p_size() && q.size() == dense_q_size());
  std::memset(p_.get(), 0, sizeof(float) * p_size());
  std::memset(q_.get(), 0, sizeof(float) * q_size());
  for (int32_t u = 0; u < num_rows_; ++u) {
    std::memcpy(Row(u), p.data() + static_cast<size_t>(u) * k_,
                sizeof(float) * static_cast<size_t>(k_));
  }
  for (int32_t v = 0; v < num_cols_; ++v) {
    std::memcpy(Col(v), q.data() + static_cast<size_t>(v) * k_,
                sizeof(float) * static_cast<size_t>(k_));
  }
}

namespace {

inline const KernelOps& Resolve(const KernelOps* ops) {
  return ops != nullptr ? *ops : DefaultKernelOps();
}

/// Most ratings summed into one RMSE partial.
constexpr int64_t kRmseGrain = 65536;
/// Most ratings per error task, on Rmse's lanes and in SgdUpdateBlocks'
/// evaluation: small enough that a test split of one kRmseGrain run still
/// spreads over every lane, and that a block made ready while every lane
/// evaluates waits little.
constexpr int64_t kErrorGrain = 4096;

/// Rmse's fold of errors[0, n), which start on a run boundary: each run's
/// in-order sum of (double)e * e goes to its slot of `run_sums`, one run
/// per chunk on `pool`'s lanes (null = the caller alone).
void FoldRuns(const float* errors, int64_t n, ThreadPool* pool,
              double* run_sums) {
  auto fold = [&](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) {
      acc += static_cast<double>(errors[i]) * errors[i];
    }
    run_sums[lo / kRmseGrain] = acc;
  };
  if (pool == nullptr) {
    for (int64_t lo = 0; lo < n; lo += kRmseGrain) {
      fold(lo, std::min(n, lo + kRmseGrain));
    }
  } else {
    pool->ParallelFor(0, n, kRmseGrain, fold);
  }
}

/// The runs' sums added in order, so the bits do not depend on the pool.
double RootMean(const std::vector<double>& run_sums, int64_t n) {
  double sq_err = 0.0;
  for (double e : run_sums) sq_err += e;
  return std::sqrt(sq_err / static_cast<double>(n));
}

}  // namespace

double SgdUpdateBlock(Model* model, const Ratings& block, SgdHyper hyper,
                      const KernelOps* ops) {
  const KernelOps& kernel = Resolve(ops);
  return kernel.sgd_block(model->p_data(), model->q_data(),
                          model->stride(), model->k(), block.data(),
                          static_cast<int64_t>(block.size()),
                          hyper.learning_rate, hyper.lambda_p,
                          hyper.lambda_q);
}

double SgdUpdateBlocks(Model* model, const BlockedMatrix& matrix,
                       const std::vector<int>& blocks, SgdHyper hyper,
                       const KernelOps* ops, ThreadPool* pool,
                       const EvalSet* eval,
                       const std::function<void()>& side_task) {
  const int n = static_cast<int>(blocks.size());
  const bool evaluating = eval != nullptr && !eval->buckets->ratings.empty();
  // With no pool or no block no lane ever waits for a block, so the
  // caller's thread runs the task before anything else.
  const bool lanes_take_task = side_task && pool != nullptr && n > 0;
  if (side_task && !lanes_take_task) side_task();
  if (n == 0 && !evaluating) return 0.0;
  // The dependency DAG over list positions. A block waits for its row
  // predecessor and its column predecessor, so every block has at most
  // one successor of each kind (a repeated block is both of them).
  const Grid& grid = matrix.grid();
  const int row_strata = grid.num_row_strata();
  const int col_strata = grid.num_col_strata();
  std::vector<int> last_in_row(row_strata, -1);
  std::vector<int> last_in_col(col_strata, -1);
  std::vector<int> row_next(n, -1), col_next(n, -1), waits(n, 0);
  // Listed blocks not yet applied, per row stratum and per column stratum.
  std::vector<int> row_left(row_strata, 0), col_left(col_strata, 0);
  for (int i = 0; i < n; ++i) {
    const int row = blocks[i] / col_strata;
    const int col = blocks[i] % col_strata;
    ++row_left[row];
    ++col_left[col];
    int& row_prev = last_in_row[row];
    int& col_prev = last_in_col[col];
    if (row_prev >= 0) {
      row_next[row_prev] = i;
      ++waits[i];
    }
    if (col_prev >= 0) {
      col_next[col_prev] = i;
      ++waits[i];
    }
    row_prev = col_prev = i;
  }

  // Lanes take the earliest ready position, so execution stays close to
  // list order. `mu` guards `ready`, `waits`, `done`, the strata counts,
  // `eval_ready` and `pending_task`; each position's squared error has
  // its own slot, written by the lane that ran it, and each evaluated
  // rating its own error, written by the lane that evaluated it.
  std::vector<double> sq_err(static_cast<size_t>(n), 0.0);
  std::mutex mu;
  std::condition_variable cv;
  std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
  for (int i = 0; i < n; ++i) {
    if (waits[i] == 0) ready.push(i);
  }
  int done = 0;
  // The side task until a lane takes it.
  const std::function<void()>* pending_task =
      lanes_take_task ? &side_task : nullptr;
  // Released buckets' ratings no lane has taken yet, as ranges of
  // eval->buckets' entries. A bucket is released once neither of its
  // strata has a listed block left: its rows and columns are final.
  std::vector<std::pair<int64_t, int64_t>> eval_ready;
  auto release = [&](int row, int col) {
    const size_t b = static_cast<size_t>(grid.BlockIndex(row, col));
    const int64_t lo = eval->buckets->offsets[b];
    const int64_t hi = eval->buckets->offsets[b + 1];
    if (lo < hi) eval_ready.emplace_back(lo, hi);
  };
  if (evaluating) {
    for (int row = 0; row < row_strata; ++row) {
      for (int col = 0; col < col_strata; ++col) {
        if (row_left[row] == 0 && col_left[col] == 0) release(row, col);
      }
    }
  }
  // Counts block `b` as applied and releases each bucket that leaves with
  // no listed block in either stratum. The row count drops first, so a
  // bucket whose two counts reach zero together is released once, by its
  // column.
  auto applied = [&](int b) {
    const int row = b / col_strata;
    const int col = b % col_strata;
    if (--row_left[row] == 0) {
      for (int c = 0; c < col_strata; ++c) {
        if (col_left[c] == 0) release(row, c);
      }
    }
    if (--col_left[col] == 0) {
      for (int r = 0; r < row_strata; ++r) {
        if (row_left[r] == 0) release(r, col);
      }
    }
  };
  const KernelOps& kernel = Resolve(ops);
  auto lane = [&](int64_t, int64_t) {
    // The ranges of one evaluation task: buckets hold a few hundred
    // ratings, so a task gathers several and pays one lock for them.
    std::vector<std::pair<int64_t, int64_t>> task;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] {
        return !ready.empty() || pending_task != nullptr ||
               !eval_ready.empty() || done == n;
      });
      if (!ready.empty()) {
        const int i = ready.top();
        ready.pop();
        lock.unlock();
        sq_err[static_cast<size_t>(i)] =
            SgdUpdateBlock(model, matrix.BlockRatings(blocks[i]), hyper, ops);
        lock.lock();
        ++done;
        if (evaluating) applied(blocks[i]);
        // Ratings this released need no wake of their own: with no block
        // ready this lane takes them next, and with one ready the other
        // lanes are busy (or already woken for it).
        bool wake = done == n;
        for (int next : {row_next[i], col_next[i]}) {
          if (next >= 0 && --waits[next] == 0) {
            ready.push(next);
            wake = true;
          }
        }
        if (wake) cv.notify_all();
      } else if (pending_task != nullptr) {
        // No block is ready: run the side task, once.
        const std::function<void()>& run =
            *std::exchange(pending_task, nullptr);
        lock.unlock();
        run();
        lock.lock();
      } else if (!eval_ready.empty()) {
        // No block is ready: evaluate up to kErrorGrain released ratings.
        task.clear();
        int64_t room = kErrorGrain;
        while (room > 0 && !eval_ready.empty()) {
          std::pair<int64_t, int64_t>& range = eval_ready.back();
          const int64_t hi = std::min(range.second, range.first + room);
          task.emplace_back(range.first, hi);
          room -= hi - range.first;
          if (hi == range.second) {
            eval_ready.pop_back();
          } else {
            range.first = hi;
          }
        }
        // More than one task's worth: hand the rest to an idle lane.
        if (!eval_ready.empty()) cv.notify_one();
        lock.unlock();
        for (const auto& [lo, hi] : task) {
          kernel.error_block(model->p_data(), model->q_data(),
                             model->stride(), model->k(),
                             eval->buckets->ratings.data() + lo,
                             eval->buckets->positions.data() + lo, hi - lo,
                             eval->errors);
        }
        lock.lock();
      } else {
        return;
      }
    }
  };
  // One lane per pool thread plus one for the caller, which ParallelFor
  // also runs lanes on: if no pool thread ever joins, the caller's lane
  // still applies every block, runs the side task and evaluates every
  // rating. No lane returns while the task waits, so it runs once.
  if (pool == nullptr) {
    lane(0, 1);
  } else {
    pool->ParallelFor(0, static_cast<int64_t>(pool->size()) + 1, 1, lane);
  }
  // List order, not completion order, so the bits match a serial loop.
  double sum = 0.0;
  for (double e : sq_err) sum += e;
  return sum;
}

double Rmse(const Model& model, const Ratings& ratings, ThreadPool* pool,
            const KernelOps* ops) {
  const int64_t n = static_cast<int64_t>(ratings.size());
  if (n == 0) return 0.0;
  const KernelOps& kernel = Resolve(ops);
  // The errors of ratings[lo, hi), written to out[0, hi - lo) unless out
  // is null; returns their in-order sum, one run's fold.
  auto errors = [&](int64_t lo, int64_t hi, float* out) {
    return kernel.error_block(model.p_data(), model.q_data(), model.stride(),
                              model.k(), ratings.data() + lo, nullptr,
                              hi - lo, out);
  };
  std::vector<double> run_sums(
      static_cast<size_t>((n + kRmseGrain - 1) / kRmseGrain));
  if (pool == nullptr) {
    for (int64_t lo = 0; lo < n; lo += kRmseGrain) {
      run_sums[static_cast<size_t>(lo / kRmseGrain)] =
          errors(lo, std::min(n, lo + kRmseGrain), nullptr);
    }
    return RootMean(run_sums, n);
  }
  // The list is taken one window of whole runs at a time, one run per
  // lane: the lanes compute the window's errors, splitting it finely
  // since each error is independent of the others, then fold its runs.
  // So the buffer holds one window, whatever the list's length.
  const int64_t window =
      std::min(n, (static_cast<int64_t>(pool->size()) + 1) * kRmseGrain);
  std::vector<float> err(static_cast<size_t>(window));
  for (int64_t begin = 0; begin < n; begin += window) {
    const int64_t end = std::min(n, begin + window);
    pool->ParallelFor(begin, end, kErrorGrain, [&](int64_t lo, int64_t hi) {
      errors(lo, hi, err.data() + (lo - begin));
    });
    FoldRuns(err.data(), end - begin, pool,
             run_sums.data() + begin / kRmseGrain);
  }
  return RootMean(run_sums, n);
}

double RmseOfErrors(const float* errors, int64_t n, ThreadPool* pool) {
  if (n == 0) return 0.0;
  std::vector<double> run_sums(
      static_cast<size_t>((n + kRmseGrain - 1) / kRmseGrain));
  FoldRuns(errors, n, pool, run_sums.data());
  return RootMean(run_sums, n);
}

}  // namespace hsgd
