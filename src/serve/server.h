// RecServer: the concurrent recommendation-serving request loop.
//
// Architecture (in-process driver loop — the API is socket-shaped so an
// epoll/io_uring front end can be bolted on later without touching the
// scoring path):
//
//   Submit(request)                 user-sharded queues      micro-batch
//   ── admission check ──> shard = user mod S ──> worker s ──> coalesce
//        (queue bound)         mutex+cv queue        up to max_batch
//                                                        │
//                              ┌─────────────────────────┘
//                              ▼
//            SnapshotHolder::Acquire()  (one pointer copy per BATCH)
//                              ▼
//            deadline check: shed requests held past the latency budget
//                              ▼
//            BatchTopK: one tile-major factor sweep answers the batch
//                              ▼
//            fulfill futures, record latency / batch-size / trace span
//
// Requests for the same user always land on the same shard (their
// exclusion lists and factor rows stay cache-warm there), and a batch is
// scored against exactly ONE snapshot — a concurrent Publish affects
// only later batches, so results are never a torn mix of two models.
//
// Load shedding is typed: a request rejected at admission (queue full or
// server stopped) fails Unavailable; one held past the latency budget is
// shed with DeadlineExceeded before any scoring work is wasted on it; a
// raw id the model has no factors for is NotFound (cold user). A request
// that completes over budget still returns its result, counted as a
// deadline miss.
//
// Overload control is ADAPTIVE when enabled (breaker_enabled + a latency
// budget): admission rejects work the deadline math says cannot be
// served in time, instead of waiting for a static queue bound to fill.
// Two mechanisms layer on the hard max_queue cap, both per shard:
//
//   predictive shedding  an EWMA of per-request service time projects
//                        the wait a new request would inherit
//                        ((queued+1) * ewma); a projection past the
//                        budget rejects at Submit — cheaper than
//                        admitting and shedding at dequeue.
//   circuit breaker      a window of 16 completions tracks the
//                        deadline-miss ratio. Half or more missed OPENS
//                        the shard's breaker: admission fails fast for a
//                        20 ms cooldown, letting the queue clear. After
//                        the cooldown the breaker HALF-OPENS and admits
//                        4 probes; an all-hit probe set closes it, any
//                        probe miss re-opens. The hysteresis
//                        (windowed open, probed close) keeps the breaker
//                        from flapping on noise.
//
// Shutdown is graceful: Drain() stops admission (new submits fail
// Unavailable) and blocks until every queued request and in-flight batch
// has resolved its promise, so no future is ever abandoned; Shutdown =
// Drain + join.
//
// Publication is validated: Publish runs the snapshot through
// FactorSnapshot::Validate and REJECTS corrupt candidates (typed error,
// publish_rejected counter) — serving continues on the last-known-good
// snapshot. See serve/snapshot.h.
//
// Each request count lives once in an always-on array of atomics that
// counters() reads, so the bench and tests need no registry; when a
// registry is attached, the same call that bumps a count bumps its
// serve.* counter too. Gauges, histograms and spans go only to the
// borrowed obs/ sinks (either may be null).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "core/kernels/kernels.h"
#include "serve/snapshot.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace hsgd::obs {
class MetricsRegistry;
class Tracer;
class Counter;
class Gauge;
class Histogram;
}  // namespace hsgd::obs

namespace hsgd::serve {

struct ServeConfig {
  /// Worker shards (threads AND queues; requests shard by user id).
  int shards = 4;
  /// Max queries coalesced into one scoring sweep.
  int max_batch = 32;
  /// Per-shard admission bound; a full queue rejects with Unavailable.
  /// 0 = unbounded.
  int max_queue = 1024;
  /// Latency budget in seconds: requests still queued past it are shed
  /// with DeadlineExceeded; completed-but-late ones count as deadline
  /// misses. <= 0 disables both.
  double latency_budget_s = 0.0;
  /// Scoring kernel (resolved at Create; kAuto = best supported).
  KernelKind kernel = KernelKind::kAuto;

  /// Adaptive overload control (file comment): the per-shard breaker +
  /// predictive shedding, tuned by the constants in server.cc. Requires
  /// a positive latency_budget_s; without one there is no deadline to
  /// adapt to and the flag is ignored.
  bool breaker_enabled = false;
};

struct TopKRequest {
  /// Dense user index, or an external raw id when `raw` is set (resolved
  /// through the snapshot's IdMap; cold ids fail NotFound).
  int64_t user = 0;
  bool raw = false;
  int k = 10;
};

struct TopKResponse {
  /// Ranked items (dense indices), descending score.
  std::vector<ScoredItem> items;
  /// External ids for `items`, filled when the snapshot carries id maps.
  std::vector<int64_t> raw_items;
  /// Version of the snapshot that scored this request.
  uint64_t snapshot_version = 0;
  /// End-to-end seconds from Submit to completion.
  double latency_s = 0.0;
};

/// Always-on request accounting (plain reads of atomics; exact once the
/// server is idle). An attached registry holds the same values under
/// serve.* (names in server.cc's count table).
struct ServeCounters {
  int64_t requests = 0;
  int64_t ok = 0;
  int64_t shed_deadline = 0;   // dropped at dequeue: budget exhausted
  int64_t rejected = 0;        // dropped at admission: queue full/stopped
  int64_t deadline_miss = 0;   // completed, but over budget
  int64_t cold_users = 0;      // raw id with no trained factors
  int64_t invalid = 0;         // malformed query (range/k)
  int64_t batches = 0;         // scoring sweeps run
  int64_t publishes = 0;       // snapshots installed
  int64_t publish_rejected = 0;    // corrupt snapshots refused
  int64_t breaker_rejected = 0;    // rejected while a breaker was open
  int64_t predictive_rejected = 0; // rejected by projected-wait math
  int64_t breaker_opens = 0;       // closed/half-open -> open transitions
  int64_t breaker_half_opens = 0;  // open -> half-open transitions
  int64_t breaker_closes = 0;      // half-open -> closed transitions
};

class RecServer {
 public:
  /// `initial` may be null (queries fail Unavailable until the first
  /// Publish). `metrics`/`trace` are borrowed sinks, either may be null.
  /// Fails if the config is malformed or the kernel is unsupported.
  static StatusOr<std::unique_ptr<RecServer>> Create(
      const ServeConfig& config, SnapshotPtr initial,
      obs::MetricsRegistry* metrics = nullptr,
      obs::Tracer* trace = nullptr);

  /// Drains queued requests, then joins the workers.
  ~RecServer();

  RecServer(const RecServer&) = delete;
  RecServer& operator=(const RecServer&) = delete;

  /// Install a new snapshot without blocking in-flight queries — batches
  /// already scoring finish on the snapshot they acquired; later batches
  /// see the new one. The candidate is validated first
  /// (SnapshotHolder::PublishValidated): a null or corrupt snapshot is
  /// REJECTED with a typed error, counted in publish_rejected, and the
  /// last-known-good snapshot keeps serving.
  Status Publish(SnapshotPtr snapshot);
  /// The snapshot new batches would score against right now.
  SnapshotPtr CurrentSnapshot() const { return holder_.Acquire(); }

  /// Enqueue a query; the future resolves when a worker answers (or
  /// sheds) it. Safe from any thread.
  std::future<StatusOr<TopKResponse>> Submit(const TopKRequest& request);
  /// Submit + wait, for callers with nothing to overlap.
  StatusOr<TopKResponse> Query(const TopKRequest& request);

  /// Graceful quiesce: stop admitting (new submits fail Unavailable),
  /// then block until every queued request and in-flight batch has
  /// resolved its promise. Workers stay alive and a later Publish still
  /// works, but admission never reopens. Safe to call from any thread;
  /// idempotent.
  void Drain();

  /// Drain, then join the workers. Idempotent; the destructor calls it.
  /// Any Submit racing Shutdown either lands before the drain (and is
  /// fully served) or fails Unavailable — its future always resolves.
  void Shutdown();

  /// Chaos/test hook, called at the top of every batch with the shard
  /// index; a positive return stalls that shard's worker for that many
  /// seconds before scoring (simulating a degraded shard). Install
  /// before traffic starts; not synchronized against in-flight batches.
  void SetBatchStallHook(std::function<double(int)> hook) {
    stall_hook_ = std::move(hook);
  }

  ServeCounters counters() const;
  const ServeConfig& config() const { return config_; }

 private:
  struct Pending {
    TopKRequest request;
    double enqueue_s = 0.0;  // server clock at Submit
    std::promise<StatusOr<TopKResponse>> promise;
  };

  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  /// One shard: a mutex/cv guarded queue its worker drains in batches,
  /// plus the shard's overload-control state (all guarded by `mu`; the
  /// worker touches it once per batch, admission once per submit).
  struct alignas(64) Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    /// True while the worker is scoring a dequeued batch; Drain waits
    /// for queue.empty() && !in_flight on `cv`.
    bool in_flight = false;
    // --- breaker + predictive admission (breaker_enabled only) ---
    BreakerState breaker = BreakerState::kClosed;
    /// EWMA of per-request service seconds (0 until the first batch).
    double ewma_service_s = 0.0;
    /// Sliding completion window feeding the miss-ratio evaluation.
    int window_total = 0;
    int window_miss = 0;
    /// Server-clock time the open cooldown expires.
    double open_until_s = 0.0;
    /// Half-open probe accounting.
    int probes_admitted = 0;
    int probes_resolved = 0;
    bool probe_missed = false;
  };

  explicit RecServer(const ServeConfig& config);

  void ShardLoop(int shard_index);
  /// Answer (or shed) one dequeued batch against a single snapshot.
  void ProcessBatch(int shard_index, std::vector<Pending>* batch);
  /// True when adaptive overload control is live (flag + budget).
  bool BreakerLive() const {
    return config_.breaker_enabled && config_.latency_budget_s > 0.0;
  }
  /// Admission-side breaker/predictive gate; call with `shard.mu` held.
  /// Ok admits; a typed error rejects (already counted).
  Status AdmitUnderControl(Shard& shard, double now_s);
  /// Completion-side state machine step; call with `shard.mu` held.
  /// `total`/`miss` are this batch's completions and deadline misses
  /// (shed requests count as misses), `service_s` the per-request
  /// service-time sample.
  void UpdateControlAfterBatch(Shard& shard, double now_s, int total,
                               int miss, double service_s);
  /// Breaker transition helpers: bump the open-shard count (mirrored to
  /// the serve.breaker.open_shards gauge) as shards open/close.
  void NoteShardOpened();
  void NoteShardUnopened();

  int ShardFor(const TopKRequest& request) const {
    return static_cast<int>(static_cast<uint64_t>(request.user) %
                            static_cast<uint64_t>(config_.shards));
  }

  ServeConfig config_;
  const KernelOps* ops_ = nullptr;
  SnapshotHolder holder_;
  /// Server-lifetime wall clock: enqueue stamps, latencies, trace ts.
  Stopwatch clock_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> stopping_{false};
  /// Set by Drain: admission closed, workers still draining/alive.
  std::atomic<bool> draining_{false};
  bool joined_ = false;
  /// Shards currently in the open (fail-fast) breaker state.
  std::atomic<int> open_shards_{0};
  std::function<double(int)> stall_hook_;

  /// The request counts, one per ServeCounters field, in the order of
  /// server.cc's count table.
  enum Count {
    kRequests,
    kOk,
    kShed,
    kRejected,
    kDeadlineMiss,
    kColdUsers,
    kInvalid,
    kBatches,
    kPublishes,
    kPublishRejected,
    kBreakerRejected,
    kPredictiveRejected,
    kBreakerOpens,
    kBreakerHalfOpens,
    kBreakerCloses,
    kNumCounts
  };
  /// Adds one to `count`, and to its registry counter when attached.
  void Bump(Count count);

  std::array<std::atomic<int64_t>, kNumCounts> counts_{};

  // Borrowed obs sinks + pre-resolved handles (null when detached).
  obs::Tracer* tracer_ = nullptr;
  std::array<obs::Counter*, kNumCounts> metric_counts_{};
  obs::Gauge* m_snapshot_version_ = nullptr;
  obs::Gauge* m_open_shards_ = nullptr;
  obs::Histogram* m_latency_ = nullptr;
  obs::Histogram* m_batch_size_ = nullptr;
};

}  // namespace hsgd::serve
