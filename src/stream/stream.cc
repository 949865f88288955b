#include "stream/stream.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <utility>

#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/retry.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace hsgd::stream {

namespace {

/// Wall-clock budget for one batch's WAL append retries.
constexpr double kWalRetryBudgetS = 0.25;

/// Raw ids -> dense through `users` / `items`, assigning the next dense
/// id to each entity seen for the first time.
Ratings Resolve(const std::vector<io::RawRating>& batch, io::IdMap* users,
                io::IdMap* items) {
  Ratings dense;
  dense.reserve(batch.size());
  for (const io::RawRating& rec : batch) {
    Rating r;
    r.u = users->Assign(rec.user);
    r.v = items->Assign(rec.item);
    r.r = rec.rating;
    dense.push_back(r);
  }
  return dense;
}

}  // namespace

io::IdMap DenseIdentityMap(int32_t size) {
  io::IdMap map;
  for (int32_t i = 0; i < size; ++i) map.Assign(i);
  return map;
}

// ---- SyntheticStream ------------------------------------------------------

SyntheticStream::SyntheticStream(const SyntheticStreamSpec& spec)
    : spec_(spec), rng_(spec.seed, 31) {}

int64_t SyntheticStream::DrawEntity(int32_t warm, int32_t* cold,
                                    double cold_rate) {
  if (rng_.NextDouble() < cold_rate) {
    return static_cast<int64_t>(warm) + (*cold)++;
  }
  // 80/20 hot-set skew over everything emitted so far (cold entities join
  // the pool once introduced, so a freshly-arrived user keeps rating).
  const int32_t pool = warm + *cold;
  const int32_t hot = std::max<int32_t>(1, pool / 5);
  if (rng_.NextDouble() < 0.8) return rng_.UniformInt(hot);
  return rng_.UniformInt(pool);
}

std::vector<io::RawRating> SyntheticStream::NextBatch(int64_t n) {
  std::vector<io::RawRating> batch;
  batch.reserve(static_cast<size_t>(std::max<int64_t>(0, n)));
  for (int64_t i = 0; i < n; ++i) {
    io::RawRating rec;
    rec.user = spec_.raw_user_base +
               DrawEntity(spec_.warm_users, &cold_users_,
                          spec_.cold_user_rate);
    rec.item = spec_.raw_item_base +
               DrawEntity(spec_.warm_items, &cold_items_,
                          spec_.cold_item_rate);
    rec.rating = kStreamMinRating +
                 rng_.NextFloat() * (kStreamMaxRating - kStreamMinRating);
    batch.push_back(rec);
  }
  return batch;
}

// ---- OnlineTrainer --------------------------------------------------------

struct OnlineTrainer::RetiredIndex {
  std::mutex mu;
  std::unique_ptr<RatedIndex> index;
};

std::shared_ptr<const RatedIndex> OnlineTrainer::ShareIndex(
    std::unique_ptr<RatedIndex> index) {
  if (retired_ == nullptr) retired_ = std::make_shared<RetiredIndex>();
  return std::shared_ptr<const RatedIndex>(
      index.release(), [retired = retired_](const RatedIndex* dropped) {
        std::unique_ptr<RatedIndex> older;
        std::lock_guard<std::mutex> lock(retired->mu);
        older = std::exchange(retired->index,
                              std::unique_ptr<RatedIndex>(
                                  const_cast<RatedIndex*>(dropped)));
      });
}

StatusOr<std::unique_ptr<OnlineTrainer>> OnlineTrainer::Open(
    std::unique_ptr<Session> session, io::IdMap users, io::IdMap items,
    Publisher publisher, obs::MetricsRegistry* metrics,
    const WalIngestOptions* wal, uint64_t applied_seq) {
  if (session == nullptr) {
    return Status::InvalidArgument("OnlineTrainer needs a live session");
  }
  if (users.size() != session->dataset().num_rows ||
      items.size() != session->dataset().num_cols) {
    return Status::InvalidArgument(StrFormat(
        "id maps (%d users, %d items) do not describe the session's "
        "dataset (%d x %d)",
        users.size(), items.size(), session->dataset().num_rows,
        session->dataset().num_cols));
  }
  std::unique_ptr<OnlineTrainer> trainer(new OnlineTrainer());
  trainer->retry_rng_ = Rng(session->config().seed, 37);
  trainer->session_ = std::move(session);
  trainer->users_ = std::move(users);
  trainer->items_ = std::move(items);
  trainer->publisher_ = std::move(publisher);
  if (wal != nullptr) {
    // Wal::Open truncates any torn tail in place.
    auto log = Wal::Open(wal->wal, metrics);
    if (!log.ok()) return log.status();
    trainer->wal_ = *std::move(log);
  }
  trainer->AttachMetrics(metrics);
  trainer->wal_applied_seq_ = applied_seq;
  obs::Set(trainer->metric_.wal_applied_seq, static_cast<double>(applied_seq));
  return trainer;
}

StatusOr<std::unique_ptr<OnlineTrainer>> OnlineTrainer::Create(
    std::unique_ptr<Session> session, io::IdMap users, io::IdMap items,
    Publisher publisher, obs::MetricsRegistry* metrics,
    const WalIngestOptions* wal) {
  auto trainer = Open(std::move(session), std::move(users), std::move(items),
                      std::move(publisher), metrics, wal, 0);
  if (!trainer.ok()) return trainer.status();
  // A fresh trainer over a non-empty log: the caller wants Recover(),
  // not Create() — silently appending after unreplayed records would
  // desync the mark from the session.
  if (wal != nullptr && (*trainer)->wal_->last_seq() != 0) {
    return Status::FailedPrecondition(StrFormat(
        "WAL at '%s' already holds %llu records; use "
        "OnlineTrainer::Recover to rebuild from it (or point Create at "
        "a fresh directory)",
        wal->wal.dir.c_str(),
        static_cast<unsigned long long>((*trainer)->wal_->last_seq())));
  }
  return trainer;
}

void OnlineTrainer::AttachMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metric_.ingested = metrics->counter("stream.ingested");
  metric_.cold_users = metrics->counter("stream.cold_users");
  metric_.cold_items = metrics->counter("stream.cold_items");
  metric_.epochs = metrics->counter("stream.epochs");
  metric_.publishes = metrics->counter("stream.publishes");
  metric_.publish_rejected = metrics->counter("stream.publish_rejected");
  metric_.wal_retries = metrics->counter("stream.wal.append_retries");
  metric_.wal_replayed = metrics->counter("stream.wal.replayed_batches");
  metric_.staleness = metrics->gauge("stream.staleness_ratings");
  metric_.version = metrics->gauge("stream.version");
  metric_.wal_applied_seq = metrics->gauge("stream.wal.applied_seq");
  metric_.publish_seconds = metrics->histogram(
      "stream.publish_wall_seconds", obs::ExponentialBounds(1e-5, 2.0, 20));
  metric_.batch_size = metrics->histogram(
      "stream.ingest_batch_size", obs::ExponentialBounds(1.0, 2.0, 20));
}

StatusOr<IngestResult> OnlineTrainer::Ingest(
    const std::vector<io::RawRating>& batch) {
  // Refused here, before the WAL append: RetryWithBackoff would retry
  // any refusal the append returned.
  if (wal_ != nullptr && batch.size() > kWalMaxBatchRatings) {
    return Status::InvalidArgument(StrFormat(
        "streamed batch of %zu ratings exceeds the WAL's %zu-rating "
        "record limit",
        batch.size(), kWalMaxBatchRatings));
  }
  for (const io::RawRating& rec : batch) {
    if (rec.user < 0 || rec.item < 0) {
      return Status::InvalidArgument(
          StrFormat("streamed rating has negative raw id (%lld, %lld)",
                    static_cast<long long>(rec.user),
                    static_cast<long long>(rec.item)));
    }
    if (!std::isfinite(rec.rating)) {
      return Status::InvalidArgument(StrFormat(
          "streamed rating (%lld, %lld) is not finite: %g",
          static_cast<long long>(rec.user),
          static_cast<long long>(rec.item), rec.rating));
    }
  }
  uint64_t seq = wal_applied_seq_;
  if (wal_ != nullptr) {
    // Durability first: the batch must be on disk before any of it is
    // applied, or a crash after apply would lose an acknowledged ingest.
    // Transient IO errors retry under the deadline; exhaustion fails the
    // Ingest with nothing applied (and nothing acknowledged).
    Status logged = RetryWithBackoff(
        &retry_rng_,
        [&]() -> Status {
          auto appended = wal_->Append(batch);
          if (!appended.ok()) return appended.status();
          seq = *appended;
          return Status::Ok();
        },
        [&](int, const Status&) {
          ++wal_retries_;
          obs::Increment(metric_.wal_retries);
        },
        kWalRetryBudgetS);
    if (!logged.ok()) return logged;
  }
  auto result = ApplyBatch(batch);
  if (result.ok() && wal_ != nullptr) {
    wal_applied_seq_ = seq;
    obs::Set(metric_.wal_applied_seq, static_cast<double>(seq));
  }
  return result;
}

StatusOr<IngestResult> OnlineTrainer::ReplayIngest(const WalRecord& record) {
  if (record.seq != wal_applied_seq_ + 1) {
    return Status::InvalidArgument(StrFormat(
        "replay out of order: record seq %llu, expected %llu",
        static_cast<unsigned long long>(record.seq),
        static_cast<unsigned long long>(wal_applied_seq_ + 1)));
  }
  auto result = ApplyBatch(record.batch);
  if (result.ok()) {
    wal_applied_seq_ = record.seq;
    obs::Increment(metric_.wal_replayed);
    obs::Set(metric_.wal_applied_seq, static_cast<double>(record.seq));
  }
  return result;
}

StatusOr<IngestResult> OnlineTrainer::ApplyBatch(
    const std::vector<io::RawRating>& batch) {
  const int32_t users_before = users_.size();
  const int32_t items_before = items_.size();
  const Ratings dense = Resolve(batch, &users_, &items_);
  HSGD_RETURN_IF_ERROR(session_->AppendRatings(dense));
  // The maps and the grown session must agree — the next publish copies
  // both, and a divergence here is exactly the stale-dense-id aliasing
  // bug this layer exists to prevent.
  HSGD_CHECK(users_.size() == session_->dataset().num_rows &&
             items_.size() == session_->dataset().num_cols);
  // Before the first index is built, the build covers these ratings.
  if (rated_ != nullptr) {
    unindexed_.insert(unindexed_.end(), dense.begin(), dense.end());
  }
  IngestResult result;
  result.accepted = static_cast<int64_t>(batch.size());
  result.cold_users = users_.size() - users_before;
  result.cold_items = items_.size() - items_before;
  obs::Add(metric_.ingested, result.accepted);
  obs::Add(metric_.cold_users, result.cold_users);
  obs::Add(metric_.cold_items, result.cold_items);
  obs::Observe(metric_.batch_size,
               static_cast<double>(result.accepted));
  obs::Set(metric_.staleness, static_cast<double>(session_->pending_nnz()));
  return result;
}

std::unique_ptr<RatedIndex> OnlineTrainer::MergedIndex(Ratings added) const {
  std::unique_ptr<RatedIndex> storage;
  {
    std::lock_guard<std::mutex> lock(retired_->mu);
    storage = std::move(retired_->index);
  }
  if (storage == nullptr) storage = std::make_unique<RatedIndex>();
  RatedIndex::Merge(*rated_, std::move(added), users_.size(), items_.size(),
                    storage.get());
  return storage;
}

StatusOr<TracePoint> OnlineTrainer::TrainDirty() {
  // The merge reads only ratings, which the sweep does not write, so it
  // runs on a lane the sweep's dependency chain leaves idle. The epoch
  // runs it on every way out, so the moved ratings always land in
  // `merged`.
  std::unique_ptr<RatedIndex> merged;
  std::function<void()> merge;
  if (rated_ != nullptr && !unindexed_.empty()) {
    merge = [this, &merged, added = std::exchange(unindexed_, {})]() mutable {
      merged = MergedIndex(std::move(added));
    };
  }
  auto point = session_->RunIncrementalEpoch(merge);
  if (merged != nullptr) rated_ = ShareIndex(std::move(merged));
  if (point.ok()) {
    obs::Increment(metric_.epochs);
    obs::Set(metric_.staleness,
             static_cast<double>(session_->pending_nnz()));
  }
  return point;
}

StatusOr<serve::SnapshotPtr> OnlineTrainer::PublishSnapshot() {
  Stopwatch wall;
  // The index depends only on the ratings, which change on this thread
  // alone, so it advances outside the epoch barrier — and stays advanced
  // whatever happens to this publish. TrainDirty merged what came before
  // it; only what arrived since is left.
  if (rated_ == nullptr) {
    rated_ = ShareIndex(std::make_unique<RatedIndex>(RatedIndex::Build(
        session_->dataset().train, users_.size(), items_.size())));
    unindexed_.clear();
  } else if (!unindexed_.empty()) {
    rated_ = ShareIndex(MergedIndex(std::exchange(unindexed_, {})));
  }
  serve::SnapshotPtr outgoing;
  HSGD_RETURN_IF_ERROR(session_->VisitQuiesced([&]() -> Status {
    auto snapshot = serve::FactorSnapshot::FromModel(
        session_->model(), rated_, version_ + 1, &users_, &items_,
        factor_buffers_);
    if (!snapshot.ok()) return snapshot.status();
    outgoing = *std::move(snapshot);
    return Status::Ok();
  }));
  if (publisher_) {
    Status published = publisher_(outgoing);
    if (!published.ok()) {
      // Not installed: the consumer keeps its last-known-good snapshot
      // and our version stays put (the next attempt re-snapshots under
      // the same version number).
      ++publish_rejected_;
      obs::Increment(metric_.publish_rejected);
      return published;
    }
  }
  ++version_;
  ++publishes_;
  obs::Increment(metric_.publishes);
  obs::Set(metric_.version, static_cast<double>(version_));
  obs::Observe(metric_.publish_seconds, wall.Seconds());
  return outgoing;
}

Status OnlineTrainer::Checkpoint(const std::string& path) {
  if (wal_ != nullptr) {
    // The checkpoint is about to claim "everything through
    // wal_applied_seq_ is durable"; make the log agree before the claim
    // hits disk.
    HSGD_RETURN_IF_ERROR(wal_->Sync());
  }
  return session_->SaveCheckpoint(path, wal_applied_seq_);
}

StatusOr<OnlineTrainer::RecoverResult> OnlineTrainer::Recover(
    Dataset warm, io::IdMap users, io::IdMap items,
    const std::string& checkpoint_path, const WalIngestOptions& wal,
    Publisher publisher, obs::MetricsRegistry* metrics) {
  // The state alone: Restore below reads the factor rows once, straight
  // into the recovered session's model.
  auto ckpt = ReadCheckpoint(checkpoint_path);
  if (!ckpt.ok()) return ckpt.status();
  const uint64_t mark = ckpt->wal_seq;

  auto replay = Wal::Replay(wal.wal.dir);
  if (!replay.ok()) return replay.status();
  if (replay->last_seq < mark) {
    return Status::FailedPrecondition(StrFormat(
        "WAL ends at seq %llu but the checkpoint's high-water mark is "
        "%llu — the log is missing acknowledged records",
        static_cast<unsigned long long>(replay->last_seq),
        static_cast<unsigned long long>(mark)));
  }

  // Dense-resolve the covered records (seq <= mark) through the warm id
  // maps, growing them exactly as the crashed trainer's Ingest did; the
  // grown batches feed Restore's bit-exact history replay.
  std::vector<Ratings> growth;
  RecoverResult result;
  for (WalRecord& record : replay->records) {
    if (record.seq > mark) {
      result.unapplied.push_back(std::move(record));
    } else {
      growth.push_back(Resolve(record.batch, &users, &items));
    }
  }

  auto session = Session::Restore(checkpoint_path, std::move(warm), growth);
  if (!session.ok()) return session.status();
  auto trainer = Open(*std::move(session), std::move(users), std::move(items),
                      std::move(publisher), metrics, &wal, mark);
  if (!trainer.ok()) return trainer.status();
  result.replayed_batches = static_cast<int64_t>(growth.size());
  obs::Add((*trainer)->metric_.wal_replayed, result.replayed_batches);
  result.trainer = *std::move(trainer);
  result.checkpoint_seq = mark;
  result.truncated_bytes = replay->truncated_bytes;
  return result;
}

}  // namespace hsgd::stream
