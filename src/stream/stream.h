// Online training: the train-and-publish loop that makes "train and
// serve concurrently from one process" real.
//
// The pieces PR 8 left unconnected — `Session` (batch training),
// `serve::SnapshotHolder` (snapshot publication), `io::IdMap` (raw-id
// vocabulary) — are driven here by an `OnlineTrainer`:
//
//   Ingest(raw batch)   raw ids -> dense via the trainer's OWN IdMaps
//                       (cold users/items grow the maps, the model's
//                       aligned factor storage, and the grid's trailing
//                       strata), appended to the session's dataset with
//                       the touched blocks marked dirty.
//   TrainDirty()        one incremental SGD epoch over only the dirty
//                       blocks (Scheduler::BeginEpoch over a subset);
//                       beside the epoch, on a thread of the session's
//                       pool, it merges the ratings applied since the
//                       last index into the trainer's rated-item index
//                       (RatedIndex::Merge), which Create and Recover
//                       build over the whole training list.
//   PublishSnapshot()   merges what arrived after the last TrainDirty
//                       into that index (outside the epoch barrier),
//                       then copies only the factors under the barrier
//                       (Session::VisitQuiesced, which fails with
//                       kFailedPrecondition rather than tear mid-epoch)
//                       into a snapshot sharing that index and carrying
//                       THIS publish's id maps, handed to the publisher
//                       callback (typically
//                       SnapshotHolder::PublishValidated /
//                       RecServer::Publish).
//
// Staleness semantics: a rating is stale from Ingest until the first
// PublishSnapshot after an epoch swept its block. `stream.staleness_ratings`
// gauges the pending count; queries for a cold user keep returning typed
// kNotFound until the publish whose maps cover it — never a stale dense-id
// aliasing from an older snapshot.
//
// Durability (WAL-backed ingest, optional): when Create is given
// WalOptions, every Ingest batch is appended to the write-ahead log —
// with deadline-bounded retries on transient IO errors — BEFORE it is
// applied to the session, so an acknowledged ingest survives a crash.
// Checkpoint() records the WAL sequence applied so far as the
// checkpoint's high-water mark; Recover() reopens the log, rebuilds the
// grown session bit-exactly (Session::Restore over the warm base plus
// the replayed growth, with the checkpoint's dataset fingerprint as the
// proof), and hands back the unapplied records (seq > mark) for the
// driver to re-drive through ReplayIngest with its original
// ingest/train cadence. The WAL is never pruned: checkpoints store
// factors, not ratings, so the whole streamed tail since the warm base
// must stay replayable, and Wal::Replay refuses (Internal) a log whose
// first record is not seq 1.
//
// Publish rejection: the publisher returns Status; a rejection (e.g.
// RecServer refusing a corrupt snapshot) leaves version/publish counters
// unadvanced and is surfaced to the driver — the server keeps serving
// its last-known-good snapshot.
//
// All OnlineTrainer methods are intended for one driver thread; the
// concurrency boundary is the published snapshot (any number of serving
// threads) and the session's epoch barrier, not this class.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/session.h"
#include "io/loader.h"
#include "serve/snapshot.h"
#include "stream/wal.h"
#include "util/rng.h"
#include "util/status.h"

namespace hsgd::obs {
class MetricsRegistry;  // obs/metrics.h
class Counter;
class Gauge;
class Histogram;
}  // namespace hsgd::obs

namespace hsgd::stream {

/// Identity vocabulary for sessions whose training data was born dense
/// (synthetic presets): raw id i maps to dense id i, for i in [0, size).
/// Seeding an OnlineTrainer with identity maps keeps the raw/dense
/// distinction honest even when they start out equal — streamed cold ids
/// then extend both sides consistently.
io::IdMap DenseIdentityMap(int32_t size);

/// Bounds of a SyntheticStream rating, drawn uniformly between them.
inline constexpr float kStreamMinRating = 1.0f;
inline constexpr float kStreamMaxRating = 5.0f;

/// A seeded synthetic arrival process: warm entities are drawn with an
/// 80/20 hot-set skew from the vocabulary emitted so far, cold entities
/// arrive at the configured rates and permanently join the warm pool.
/// Raw ids are `raw_user_base + ordinal` (ditto items) — offset the bases
/// so a raw id is never numerically equal to its dense index and any
/// identity-fallback bug becomes observable instead of silently correct.
struct SyntheticStreamSpec {
  int32_t warm_users = 0;  // ordinals [0, warm_users) preexist the stream
  int32_t warm_items = 0;
  double cold_user_rate = 0.02;  // per-arrival probability of a new user
  double cold_item_rate = 0.01;
  int64_t raw_user_base = 0;
  int64_t raw_item_base = 0;
  uint64_t seed = 1;
};

class SyntheticStream {
 public:
  explicit SyntheticStream(const SyntheticStreamSpec& spec);

  /// The next `n` arrivals, in order. Deterministic for a given spec.
  std::vector<io::RawRating> NextBatch(int64_t n);

  /// Entities emitted cold so far (beyond the warm preset).
  int32_t cold_users_emitted() const { return cold_users_; }
  int32_t cold_items_emitted() const { return cold_items_; }

 private:
  int64_t DrawEntity(int32_t warm, int32_t* cold, double cold_rate);

  SyntheticStreamSpec spec_;
  Rng rng_;
  int32_t cold_users_ = 0;
  int32_t cold_items_ = 0;
};

struct IngestResult {
  int64_t accepted = 0;
  /// Entities first seen in this batch (IdMap growth = model growth).
  int32_t cold_users = 0;
  int32_t cold_items = 0;
};

class OnlineTrainer {
 public:
  /// Receives each published snapshot and reports whether it was
  /// accepted; typically binds RecServer::Publish (which validates and
  /// may reject) or wraps SnapshotHolder::PublishValidated. Runs on the
  /// driver thread inside PublishSnapshot. A non-Ok return means the
  /// snapshot was NOT installed; the trainer leaves its version
  /// unadvanced and surfaces the status.
  using Publisher = std::function<Status(serve::SnapshotPtr)>;

  /// The WAL that arms durable ingest (Create takes a pointer; null = no
  /// WAL, PR-9 behavior bit for bit). Transient append failures
  /// (injected IO faults, EINTR-ish) are retried on util/retry.h's
  /// backoff schedule, bounded by a quarter second of wall clock — the
  /// ingest path has latency obligations, so a sick log fails the Ingest
  /// (typed, nothing applied) rather than stalling the driver loop.
  struct WalIngestOptions {
    WalOptions wal;
  };

  /// Everything Recover() rebuilt, plus the work left for the driver.
  struct RecoverResult {
    std::unique_ptr<OnlineTrainer> trainer;
    /// Records logged but NOT covered by the checkpoint (seq > mark),
    /// in seq order. Re-drive each through ReplayIngest with the same
    /// ingest/train cadence the original run used.
    std::vector<WalRecord> unapplied;
    /// The checkpoint's WAL high-water mark.
    uint64_t checkpoint_seq = 0;
    /// Batches replayed into the rebuilt session (seq <= mark).
    int64_t replayed_batches = 0;
    /// Torn bytes truncated from the log tail (crash mid-append).
    int64_t truncated_bytes = 0;
  };

  /// Takes ownership of a live `session` and the id maps describing its
  /// CURRENT dataset (use DenseIdentityMap for synthetic data, or the
  /// maps LoadRatings built for a real dump). InvalidArgument when the
  /// map sizes disagree with the session's dimensions or the session is
  /// null. `metrics` (borrowed, may be null) receives the stream.*
  /// instruments. `wal` (optional) arms durable ingest: the log is
  /// opened (replaying/truncating any torn tail) and every subsequent
  /// Ingest is logged before it is applied.
  static StatusOr<std::unique_ptr<OnlineTrainer>> Create(
      std::unique_ptr<Session> session, io::IdMap users, io::IdMap items,
      Publisher publisher, obs::MetricsRegistry* metrics = nullptr,
      const WalIngestOptions* wal = nullptr);

  /// Crash recovery for a WAL-armed trainer. Reads the checkpoint's WAL
  /// mark from its state alone (Restore reads the factor rows, once),
  /// replays the log (truncating a torn tail), rebuilds the grown
  /// session bit-exactly via Session::Restore over `warm` plus the
  /// replayed growth (the checkpoint's dataset fingerprint proves they
  /// reconstruct the crashed session's data), reopens the WAL for
  /// appending, and returns the unapplied tail for the driver to
  /// re-drive. `warm` / `users` / `items` describe the WARM base
  /// (pre-stream), exactly as first handed to Create; the map sizes are
  /// checked as Create checks them. Requires an existing checkpoint: a WAL
  /// with no checkpoint means re-running the warm bootstrap + full
  /// replay from scratch, which is the driver's call, not this helper's.
  static StatusOr<RecoverResult> Recover(
      Dataset warm, io::IdMap users, io::IdMap items,
      const std::string& checkpoint_path, const WalIngestOptions& wal,
      Publisher publisher, obs::MetricsRegistry* metrics = nullptr);

  /// Append a raw batch: when a WAL is armed the batch is made durable
  /// first (retried within a quarter-second deadline; a final failure
  /// returns the error with NOTHING applied), then ids are resolved
  /// (growing the trainer's maps for cold entities) and the dense
  /// ratings appended to the session. InvalidArgument on negative raw
  /// ids, with nothing mutated or logged.
  StatusOr<IngestResult> Ingest(const std::vector<io::RawRating>& batch);

  /// Recovery-path ingest: applies a replayed WAL record WITHOUT
  /// re-appending it to the log. Records must arrive in seq order
  /// (checkpoint_seq+1, +2, ...); InvalidArgument otherwise.
  StatusOr<IngestResult> ReplayIngest(const WalRecord& record);

  /// Durable save: fsyncs the WAL (when armed), then writes the session
  /// checkpoint stamped with the WAL sequence applied so far; the
  /// checkpoint file and its directory are fsynced before it returns OK,
  /// so both survive a power loss. Refused (FailedPrecondition, from
  /// Session::SaveCheckpoint) while ratings are ingested-but-untrained —
  /// recovery's dirty-state reconstruction (Session::Restore with growth)
  /// relies on checkpoints being taken at ingest-quiescent points; run
  /// TrainDirty first.
  Status Checkpoint(const std::string& path);

  /// One incremental epoch over the blocks dirtied since the last epoch.
  /// FailedPrecondition when nothing is pending (harmless; skip and keep
  /// ingesting). The epoch's side task (Session::RunIncrementalEpoch)
  /// merges the ratings applied since the last index into it, on a pool
  /// thread beside the epoch, so the next publish has only later arrivals
  /// left to merge. That task runs whatever the epoch returns, so the
  /// index advances also when the epoch is refused or fails; it changes
  /// no bit of the epoch, and the index equals what PublishSnapshot's
  /// own merge would have built.
  StatusOr<TracePoint> TrainDirty();

  /// Barrier-synchronized snapshot of the session's current factors +
  /// THIS moment's id maps, with a fresh monotonic version, handed to
  /// the publisher, which sees every snapshot before it is installed
  /// (a chaos driver can swap in a poisoned copy there). The exclusion
  /// index is advanced first, outside the barrier: a publish merges only
  /// the ratings applied since the last index (none in a round that
  /// ingests, trains and publishes, since TrainDirty merged them), and a
  /// publish with nothing ingested since the last index shares it as is:
  /// Create and Recover built it over the training list. Only the
  /// factor copy runs under Session::VisitQuiesced, so a publish costs
  /// the new ratings plus the factors, not every rating. Both are
  /// written into storage the server has dropped (the index two publishes
  /// back, the last dropped snapshot's factor buffers), so a steady
  /// publish allocates and faults in no memory. A publisher
  /// rejection is returned as-is with version/publish counters
  /// unadvanced (counted in publish_rejected()), but the index keeps
  /// what it merged; the next attempt re-snapshots under the same
  /// version. On success returns what was actually published.
  StatusOr<serve::SnapshotPtr> PublishSnapshot();

  const Session& session() const { return *session_; }
  const io::IdMap& users() const { return users_; }
  const io::IdMap& items() const { return items_; }
  /// Version of the last successful publish (0 = none yet).
  uint64_t version() const { return version_; }
  int64_t publishes() const { return publishes_; }
  /// Publishes the publisher refused (snapshot not installed).
  int64_t publish_rejected() const { return publish_rejected_; }
  /// Ratings ingested but not yet covered by an epoch.
  int64_t pending_nnz() const { return session_->pending_nnz(); }
  /// The armed WAL, or null. Exposed for chaos hooks
  /// (Wal::SetIoFaultHook) and tests; production drivers don't touch it.
  Wal* wal() { return wal_.get(); }
  /// Highest WAL seq whose batch has been applied to the session
  /// (0 = none; always wal()->last_seq() minus any in-flight failure).
  uint64_t wal_applied_seq() const { return wal_applied_seq_; }
  /// WAL append retries taken so far (transient faults absorbed).
  int64_t wal_retries() const { return wal_retries_; }

 private:
  OnlineTrainer() = default;

  /// The one place a trainer is wired, for Create and Recover: checks
  /// the id maps against the session, opens `wal` (when given), attaches
  /// `metrics`, starts the applied WAL mark at `applied_seq` and builds
  /// the rated-item index over the session's training list.
  static StatusOr<std::unique_ptr<OnlineTrainer>> Open(
      std::unique_ptr<Session> session, io::IdMap users, io::IdMap items,
      Publisher publisher, obs::MetricsRegistry* metrics,
      const WalIngestOptions* wal, uint64_t applied_seq);
  /// Shared dense-resolve + append body of Ingest/ReplayIngest.
  StatusOr<IngestResult> ApplyBatch(const std::vector<io::RawRating>& batch);
  /// Resolve the stream.* instrument handles (null registry = no-op).
  void AttachMetrics(obs::MetricsRegistry* metrics);
  /// `index` as a shared index whose deleter hands the storage to
  /// `retired_` instead of freeing it.
  std::shared_ptr<const RatedIndex> ShareIndex(
      std::unique_ptr<RatedIndex> index);
  /// `rated_` plus `added`, merged into the retired index's storage (a
  /// fresh one when none is retired). The one merge path, for TrainDirty,
  /// which runs it on a pool thread while the calling thread runs the
  /// epoch, and for PublishSnapshot.
  std::unique_ptr<RatedIndex> MergedIndex(Ratings added) const;

  std::unique_ptr<Session> session_;
  io::IdMap users_;
  io::IdMap items_;
  Publisher publisher_;
  uint64_t version_ = 0;
  int64_t publishes_ = 0;
  int64_t publish_rejected_ = 0;
  /// The rated-item index: built by Open over the training list, then
  /// replaced by each TrainDirty or publish attempt that merges into it,
  /// and shared with every snapshot built on it. Never null. The dense
  /// ratings applied since are `unindexed_`, which the next TrainDirty or
  /// publish merges into it.
  std::shared_ptr<const RatedIndex> rated_;
  Ratings unindexed_;
  /// Storage of the last index that no snapshot holds any more, left by
  /// ShareIndex's deleter in whichever thread drops the last snapshot;
  /// the next merge writes into it, so a steady publish allocates (and
  /// faults in) no index memory. Shared with the deleters, so snapshots
  /// may outlive the trainer.
  struct RetiredIndex;
  std::shared_ptr<RetiredIndex> retired_;
  /// Likewise for the snapshots' factor copies.
  std::shared_ptr<serve::FactorRecycler> factor_buffers_ =
      std::make_shared<serve::FactorRecycler>();

  std::unique_ptr<Wal> wal_;
  uint64_t wal_applied_seq_ = 0;
  int64_t wal_retries_ = 0;
  /// Jitter source for WAL append backoff (stream 37; only consumed
  /// when an append actually fails, so fault-free runs never draw).
  Rng retry_rng_{1, 37};

  struct Metrics {
    obs::Counter* ingested = nullptr;
    obs::Counter* cold_users = nullptr;
    obs::Counter* cold_items = nullptr;
    obs::Counter* epochs = nullptr;
    obs::Counter* publishes = nullptr;
    obs::Counter* publish_rejected = nullptr;
    obs::Counter* wal_retries = nullptr;
    obs::Counter* wal_replayed = nullptr;
    obs::Gauge* staleness = nullptr;
    obs::Gauge* version = nullptr;
    obs::Gauge* wal_applied_seq = nullptr;
    obs::Histogram* publish_seconds = nullptr;
    obs::Histogram* batch_size = nullptr;
  } metric_;
};

}  // namespace hsgd::stream
