#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/strings.h"

namespace hsgd::serve {

namespace {

// Breaker tuning (ServeConfig::breaker_enabled switches it on).
/// Completions per miss-ratio evaluation window.
constexpr int kBreakerWindow = 16;
/// Deadline-miss ratio (shed + late completions) that opens the breaker.
constexpr double kBreakerMissRatio = 0.5;
/// Fail-fast cooldown after opening, in seconds, before half-opening.
constexpr double kBreakerOpenS = 0.02;
/// Probe requests admitted half-open; all must hit the deadline to close
/// the breaker, one miss re-opens it.
constexpr int kBreakerProbes = 4;

/// One row per RecServer::Count, in enum order: the ServeCounters field
/// the count reads back as and the registry counter it is mirrored to.
struct CountRow {
  int64_t ServeCounters::*field;
  const char* metric;
};
constexpr CountRow kCountTable[] = {
    {&ServeCounters::requests, "serve.requests"},
    {&ServeCounters::ok, "serve.ok"},
    {&ServeCounters::shed_deadline, "serve.shed"},
    {&ServeCounters::rejected, "serve.rejected"},
    {&ServeCounters::deadline_miss, "serve.deadline_miss"},
    {&ServeCounters::cold_users, "serve.cold_users"},
    {&ServeCounters::invalid, "serve.invalid"},
    {&ServeCounters::batches, "serve.batches"},
    {&ServeCounters::publishes, "serve.snapshot_publishes"},
    {&ServeCounters::publish_rejected, "serve.publish_rejected"},
    {&ServeCounters::breaker_rejected, "serve.breaker.rejected"},
    {&ServeCounters::predictive_rejected,
     "serve.breaker.predictive_rejected"},
    {&ServeCounters::breaker_opens, "serve.breaker.opens"},
    {&ServeCounters::breaker_half_opens, "serve.breaker.half_opens"},
    {&ServeCounters::breaker_closes, "serve.breaker.closes"},
};

}  // namespace

RecServer::RecServer(const ServeConfig& config) : config_(config) {}

StatusOr<std::unique_ptr<RecServer>> RecServer::Create(
    const ServeConfig& config, SnapshotPtr initial,
    obs::MetricsRegistry* metrics, obs::Tracer* trace) {
  if (config.shards < 1 || config.shards > 4096) {
    return Status::InvalidArgument(
        StrFormat("shards must be in [1, 4096], got %d", config.shards));
  }
  if (config.max_batch < 1) {
    return Status::InvalidArgument(
        StrFormat("max_batch must be positive, got %d", config.max_batch));
  }
  if (config.max_queue < 0) {
    return Status::InvalidArgument(
        StrFormat("max_queue must be >= 0, got %d", config.max_queue));
  }
  auto resolved = ResolveKernelKind(config.kernel);
  HSGD_RETURN_IF_ERROR(resolved.status());

  auto server = std::unique_ptr<RecServer>(new RecServer(config));
  server->config_.kernel = *resolved;
  server->ops_ = &GetKernelOps(*resolved);
  if (metrics != nullptr) {
    static_assert(std::size(kCountTable) == kNumCounts,
                  "one count table row per RecServer::Count");
    for (int c = 0; c < kNumCounts; ++c) {
      server->metric_counts_[c] = metrics->counter(kCountTable[c].metric);
    }
    server->m_open_shards_ = metrics->gauge("serve.breaker.open_shards");
    server->m_snapshot_version_ = metrics->gauge("serve.snapshot_version");
    // 10us .. ~84s exponential edges: covers sub-ms in-process serving
    // through badly overloaded tails.
    server->m_latency_ = metrics->histogram(
        "serve.latency_seconds", obs::ExponentialBounds(1e-5, 2.0, 24));
    server->m_batch_size_ = metrics->histogram(
        "serve.batch_size", obs::ExponentialBounds(1.0, 2.0, 12));
  }
  if (initial != nullptr) {
    // A corrupt initial snapshot fails construction outright — there is
    // no last-known-good to fall back to yet.
    HSGD_RETURN_IF_ERROR(server->Publish(std::move(initial)));
  }
  server->tracer_ = trace;
  if (trace != nullptr) {
    for (int s = 0; s < config.shards; ++s) {
      trace->SetThreadName(s, StrFormat("serve shard %d", s));
    }
  }

  server->shards_.reserve(config.shards);
  for (int s = 0; s < config.shards; ++s) {
    server->shards_.push_back(std::make_unique<Shard>());
  }
  server->pool_ =
      std::make_unique<ThreadPool>(static_cast<size_t>(config.shards));
  RecServer* raw = server.get();
  for (int s = 0; s < config.shards; ++s) {
    server->pool_->Submit([raw, s] { raw->ShardLoop(s); });
  }
  return server;
}

RecServer::~RecServer() { Shutdown(); }

Status RecServer::Publish(SnapshotPtr snapshot) {
  const uint64_t version = snapshot != nullptr ? snapshot->version() : 0;
  Status published = holder_.PublishValidated(std::move(snapshot));
  if (!published.ok()) {
    // Rejection leaves the last-known-good snapshot serving untouched.
    Bump(kPublishRejected);
    return published;
  }
  Bump(kPublishes);
  obs::Set(m_snapshot_version_, static_cast<double>(version));
  return Status::Ok();
}

std::future<StatusOr<TopKResponse>> RecServer::Submit(
    const TopKRequest& request) {
  Bump(kRequests);
  std::promise<StatusOr<TopKResponse>> promise;
  std::future<StatusOr<TopKResponse>> future = promise.get_future();

  Pending pending;
  pending.request = request;
  pending.enqueue_s = clock_.Seconds();
  pending.promise = std::move(promise);

  Shard& shard = *shards_[ShardFor(request)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (stopping_.load(std::memory_order_acquire) ||
        draining_.load(std::memory_order_acquire)) {
      Bump(kRejected);
      pending.promise.set_value(
          Status::Unavailable("server is shutting down"));
      return future;
    }
    if (BreakerLive()) {
      Status admitted = AdmitUnderControl(shard, pending.enqueue_s);
      if (!admitted.ok()) {
        pending.promise.set_value(admitted);
        return future;
      }
    }
    if (config_.max_queue > 0 &&
        shard.queue.size() >= static_cast<size_t>(config_.max_queue)) {
      Bump(kRejected);
      pending.promise.set_value(Status::Unavailable(
          StrFormat("shard queue full (%d queued)", config_.max_queue)));
      return future;
    }
    shard.queue.push_back(std::move(pending));
  }
  shard.cv.notify_one();
  return future;
}

Status RecServer::AdmitUnderControl(Shard& shard, double now_s) {
  // Open: fail fast until the cooldown expires, then half-open with a
  // fresh probe budget.
  if (shard.breaker == BreakerState::kOpen) {
    if (now_s < shard.open_until_s) {
      Bump(kBreakerRejected);
      return Status::Unavailable(
          "circuit open: shard shedding after sustained deadline misses");
    }
    shard.breaker = BreakerState::kHalfOpen;
    shard.probes_admitted = 0;
    shard.probes_resolved = 0;
    shard.probe_missed = false;
    Bump(kBreakerHalfOpens);
    NoteShardUnopened();
  }
  // Half-open: admit exactly the probe budget, reject the rest until the
  // probes resolve one way or the other.
  if (shard.breaker == BreakerState::kHalfOpen) {
    if (shard.probes_admitted >= kBreakerProbes) {
      Bump(kBreakerRejected);
      return Status::Unavailable(
          "circuit half-open: probe budget exhausted");
    }
    ++shard.probes_admitted;
    return Status::Ok();  // probes bypass the predictive check
  }
  // Closed: shed predictively when the queue-depth * EWMA service time
  // projection says this request would miss its deadline anyway —
  // cheaper than admitting it and shedding at dequeue.
  if (shard.ewma_service_s > 0.0) {
    const double projected_s =
        (static_cast<double>(shard.queue.size()) + 1.0) *
        shard.ewma_service_s;
    if (projected_s > config_.latency_budget_s) {
      Bump(kPredictiveRejected);
      return Status::Unavailable(StrFormat(
          "projected wait %.2fms exceeds the %.2fms budget",
          projected_s * 1e3, config_.latency_budget_s * 1e3));
    }
  }
  return Status::Ok();
}

void RecServer::UpdateControlAfterBatch(Shard& shard, double now_s,
                                        int total, int miss,
                                        double service_s) {
  if (service_s > 0.0) {
    // EWMA with a 0.2 step: reacts within a handful of batches without
    // flapping on one slow sweep.
    shard.ewma_service_s =
        shard.ewma_service_s <= 0.0
            ? service_s
            : 0.8 * shard.ewma_service_s + 0.2 * service_s;
  }
  if (total <= 0) return;
  if (shard.breaker == BreakerState::kHalfOpen) {
    shard.probes_resolved += total;
    if (miss > 0) shard.probe_missed = true;
    if (shard.probe_missed) {
      // A probe missed its deadline: back to open for another cooldown.
      shard.breaker = BreakerState::kOpen;
      shard.open_until_s = now_s + kBreakerOpenS;
      Bump(kBreakerOpens);
      NoteShardOpened();
    } else if (shard.probes_resolved >= kBreakerProbes) {
      // Every probe hit: the shard has recovered.
      shard.breaker = BreakerState::kClosed;
      shard.window_total = 0;
      shard.window_miss = 0;
      Bump(kBreakerCloses);
    }
    return;
  }
  if (shard.breaker == BreakerState::kClosed) {
    shard.window_total += total;
    shard.window_miss += miss;
    if (shard.window_total >= kBreakerWindow) {
      if (static_cast<double>(shard.window_miss) >=
          kBreakerMissRatio * static_cast<double>(shard.window_total)) {
        shard.breaker = BreakerState::kOpen;
        shard.open_until_s = now_s + kBreakerOpenS;
        Bump(kBreakerOpens);
        NoteShardOpened();
      }
      shard.window_total = 0;
      shard.window_miss = 0;
    }
  }
  // Open with no admission: completions here are stragglers admitted
  // before the trip; they don't feed any window.
}

void RecServer::NoteShardOpened() {
  const int open = open_shards_.fetch_add(1, std::memory_order_relaxed) + 1;
  obs::Set(m_open_shards_, static_cast<double>(open));
}

void RecServer::NoteShardUnopened() {
  const int open = open_shards_.fetch_sub(1, std::memory_order_relaxed) - 1;
  obs::Set(m_open_shards_, static_cast<double>(open));
}

StatusOr<TopKResponse> RecServer::Query(const TopKRequest& request) {
  return Submit(request).get();
}

void RecServer::ShardLoop(int shard_index) {
  Shard& shard = *shards_[shard_index];
  std::vector<Pending> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock, [&] {
        return !shard.queue.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (shard.queue.empty()) {
        // Stopping and fully drained.
        return;
      }
      const size_t take = std::min(shard.queue.size(),
                                   static_cast<size_t>(config_.max_batch));
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(shard.queue.front()));
        shard.queue.pop_front();
      }
      shard.in_flight = true;
    }
    ProcessBatch(shard_index, &batch);
    {
      // Batch fully resolved; wake any Drain() waiting on this shard.
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.in_flight = false;
    }
    shard.cv.notify_all();
  }
}

void RecServer::ProcessBatch(int shard_index, std::vector<Pending>* batch) {
  if (stall_hook_) {
    // Chaos hook: a degraded shard stalls before scoring (slowshard).
    const double stall_s = stall_hook_(shard_index);
    if (stall_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_s));
    }
  }
  const double batch_begin_s = clock_.Seconds();
  // Breaker window feed: completions and deadline misses in this batch
  // (a shed request is a definite miss; cold/invalid resolve instantly
  // and count as hits).
  int win_total = 0;
  int win_miss = 0;
  double service_sample_s = 0.0;
  // ONE snapshot per batch: a concurrent Publish changes later batches,
  // never the one in flight, so a batch's answers can't mix two models.
  const SnapshotPtr snapshot = holder_.Acquire();

  // Triage: shed expired requests, resolve raw ids, collect the scorable
  // queries. `live` maps scorable-query position -> batch position.
  std::vector<TopKQuery> queries;
  std::vector<size_t> live;
  queries.reserve(batch->size());
  live.reserve(batch->size());
  int64_t shed = 0;
  for (size_t i = 0; i < batch->size(); ++i) {
    Pending& pending = (*batch)[i];
    if (snapshot == nullptr) {
      Bump(kRejected);
      pending.promise.set_value(
          Status::Unavailable("no snapshot published yet"));
      continue;
    }
    if (config_.latency_budget_s > 0.0 &&
        batch_begin_s - pending.enqueue_s > config_.latency_budget_s) {
      ++shed;
      ++win_total;
      ++win_miss;
      Bump(kShed);
      pending.promise.set_value(Status::DeadlineExceeded(StrFormat(
          "request queued %.1fms, budget %.1fms",
          (batch_begin_s - pending.enqueue_s) * 1e3,
          config_.latency_budget_s * 1e3)));
      continue;
    }
    int32_t dense_user;
    if (pending.request.raw) {
      auto resolved = snapshot->DenseUser(pending.request.user);
      if (!resolved.ok()) {
        ++win_total;
        Bump(kColdUsers);
        pending.promise.set_value(resolved.status());
        continue;
      }
      dense_user = *resolved;
    } else {
      if (pending.request.user < 0 ||
          pending.request.user > INT32_MAX) {
        ++win_total;
        Bump(kInvalid);
        pending.promise.set_value(Status::InvalidArgument(StrFormat(
            "user id %lld is not a dense index",
            static_cast<long long>(pending.request.user))));
        continue;
      }
      dense_user = static_cast<int32_t>(pending.request.user);
    }
    queries.push_back({dense_user, pending.request.k});
    live.push_back(i);
  }

  if (!queries.empty()) {
    Bump(kBatches);
    obs::Observe(m_batch_size_, static_cast<double>(queries.size()));
    // Thread-local so each shard worker keeps one resident buffer across
    // its lifetime of batches.
    static thread_local std::vector<float> scratch;
    auto results =
        BatchTopK(*snapshot, queries.data(), queries.size(), ops_,
                  &scratch);
    const double done_s = clock_.Seconds();
    service_sample_s = (done_s - batch_begin_s) /
                       static_cast<double>(queries.size());
    for (size_t qi = 0; qi < results.size(); ++qi) {
      Pending& pending = (*batch)[live[qi]];
      ++win_total;
      if (!results[qi].ok()) {
        Bump(kInvalid);
        pending.promise.set_value(results[qi].status());
        continue;
      }
      TopKResponse response;
      response.items = *std::move(results[qi]);
      if (snapshot->has_id_maps()) {
        response.raw_items.reserve(response.items.size());
        for (const ScoredItem& item : response.items) {
          response.raw_items.push_back(snapshot->RawItem(item.item));
        }
      }
      response.snapshot_version = snapshot->version();
      response.latency_s = done_s - pending.enqueue_s;
      Bump(kOk);
      obs::Observe(m_latency_, response.latency_s);
      if (config_.latency_budget_s > 0.0 &&
          response.latency_s > config_.latency_budget_s) {
        ++win_miss;
        Bump(kDeadlineMiss);
      }
      pending.promise.set_value(std::move(response));
    }
  }

  if (BreakerLive() && (win_total > 0 || service_sample_s > 0.0)) {
    Shard& control_shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(control_shard.mu);
    UpdateControlAfterBatch(control_shard, clock_.Seconds(), win_total,
                            win_miss, service_sample_s);
  }

  if (tracer_ != nullptr) {
    tracer_->Span(
        "serve", "batch", shard_index, batch_begin_s, clock_.Seconds(),
        {obs::TraceArg::Int("queries", static_cast<int64_t>(queries.size())),
         obs::TraceArg::Int("shed", shed),
         obs::TraceArg::Int(
             "snapshot_version",
             snapshot != nullptr
                 ? static_cast<int64_t>(snapshot->version())
                 : -1)});
  }
}

void RecServer::Drain() {
  draining_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    // Wake the worker for anything still queued, then wait for it to
    // resolve every promise. A Submit that raced the draining_ store and
    // enqueued is simply part of what we wait for — nothing is dropped.
    shard->cv.notify_all();
    shard->cv.wait(lock,
                   [&] { return shard->queue.empty() && !shard->in_flight; });
  }
}

void RecServer::Shutdown() {
  if (joined_) return;
  // Drain first: every already-admitted request resolves its future
  // before any worker is asked to exit, so no promise is ever abandoned.
  Drain();
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    // The store above is ordered before this lock/unlock pair, so a
    // worker that re-checks under the lock cannot miss it.
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->cv.notify_all();
  }
  // ThreadPool's destructor joins the shard loops (they exit once their
  // queues drain).
  pool_.reset();
  joined_ = true;
}

void RecServer::Bump(Count count) {
  counts_[count].fetch_add(1, std::memory_order_relaxed);
  obs::Increment(metric_counts_[count]);
}

ServeCounters RecServer::counters() const {
  ServeCounters counters;
  for (int c = 0; c < kNumCounts; ++c) {
    counters.*kCountTable[c].field =
        counts_[c].load(std::memory_order_relaxed);
  }
  return counters;
}

}  // namespace hsgd::serve
