// Fixed-size worker pool with a blocking ParallelFor. Used for the
// session's SGD sweep and RMSE evaluation, and for the serving shards.
//
// ParallelFor chunks [begin, end) by a fixed grain so the work
// decomposition — and therefore any order-sensitive reduction done by the
// caller over chunk results — is independent of the pool size.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hsgd {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return threads_.size(); }

  /// Enqueue a task; runs as soon as a worker frees up.
  void Submit(std::function<void()> fn);

  /// Run fn(chunk_begin, chunk_end) over [begin, end) split into chunks of
  /// at most `grain` items; blocks until every chunk completes. The caller
  /// thread participates, so this works even for a pool of size 0.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool shutdown_ = false;
};

}  // namespace hsgd
