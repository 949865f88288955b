// Serving-side factor snapshots, their publication, and the TopK path.
//
// A FactorSnapshot is an immutable, 64-byte-aligned copy of a trained
// model's factor matrices plus everything a query needs that the raw
// factors don't carry: the per-user rated-item exclusion lists and, when
// the ratings came from a real dump, the raw<->dense id maps so results
// can be translated back to external ids. Snapshots are captured from a
// live Session between epochs or from any Model directly; to serve a
// checkpoint, Session::Restore it and capture FromSession. Once built
// they are never mutated, so any number of threads may score against one
// without coordination. The exclusion index is held by shared_ptr to
// const: snapshots built on the same ratings share one index instead of
// each copying it (stream::OnlineTrainer publishes this way), and a
// FactorRecycler lets a frequent publisher copy the factors into the
// buffers of a snapshot already dropped instead of fresh memory.
//
// SnapshotHolder is the publication point: one shared_ptr behind a mutex.
// Readers copy the pointer under the lock (nanoseconds) and then score
// against their copy for as long as they like; a publish validates the
// candidate outside the lock and swaps the pointer under it. The server
// acquires once per batch, not per query, so the lock is rarely
// contended.
//
// BatchTopK is the only TopK path: it answers many queries with ONE
// tile-major sweep of the item-factor matrix (each Q tile is pulled from
// memory once and served to every query in the batch via kernels'
// ScoreBlockBatch). A one-query batch is a plain TopK.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/model.h"
#include "core/recommender.h"
#include "core/types.h"
#include "io/loader.h"
#include "util/aligned.h"
#include "util/status.h"

namespace hsgd {
class Session;  // core/session.h
}  // namespace hsgd

namespace hsgd::serve {

class FactorSnapshot;
using SnapshotPtr = std::shared_ptr<const FactorSnapshot>;

/// Factor storage that dropped snapshots hand back for the next FromModel
/// to copy into, so a publisher that snapshots every few milliseconds
/// stops allocating, zero-filling and faulting in a fresh pair of
/// matrices each time. It keeps the buffers of the last snapshot dropped;
/// one too small for the next model is replaced by a fresh buffer with an
/// eighth of headroom, since streaming models grow a few rows at a time.
/// Thread-safe: a snapshot's last holder may drop it on any thread.
class FactorRecycler {
 private:
  friend class FactorSnapshot;
  struct Buffer {
    AlignedFloatPtr data;
    size_t capacity = 0;  // floats
  };

  /// The kept buffers, each replaced when it holds fewer floats than
  /// asked for.
  void Take(size_t p_floats, size_t q_floats, Buffer* p, Buffer* q);
  /// Keep `p` and `q` for the next Take, freeing any buffers kept before.
  void Keep(Buffer p, Buffer q);

  std::mutex mu_;
  Buffer p_;
  Buffer q_;
};

class FactorSnapshot {
 public:
  /// Deep-copies `model`'s factors (already stride-padded and aligned)
  /// and shares `rated` as the exclusion set: the index is immutable, so
  /// any number of snapshots may hold the same one. InvalidArgument when
  /// `rated` is null or does not index exactly model.num_rows() users.
  /// `users`/`items` (optional, copied) translate raw external ids; pass
  /// the loader's IdMaps when the ratings came from a real dump.
  /// `version` tags the snapshot for observability and swap tests —
  /// callers pick any monotonic scheme.
  /// With a `recycler`, the factors are copied into the buffers it kept
  /// from the last such snapshot dropped (when they are large enough),
  /// and this snapshot hands its own back to it when dropped.
  static StatusOr<std::shared_ptr<const FactorSnapshot>> FromModel(
      const Model& model, std::shared_ptr<const RatedIndex> rated,
      uint64_t version, const io::IdMap* users = nullptr,
      const io::IdMap* items = nullptr,
      std::shared_ptr<FactorRecycler> recycler = nullptr);

  /// FromModel over a fresh RatedIndex::Build of `rated`, so the cost
  /// grows with every rating, not with what changed since an earlier
  /// snapshot.
  static StatusOr<std::shared_ptr<const FactorSnapshot>> FromModel(
      const Model& model, const Ratings& rated, uint64_t version,
      const io::IdMap* users = nullptr, const io::IdMap* items = nullptr);

  /// FromModel over a live session's current factors and its training
  /// ratings (indexed from scratch), gated on the session's epoch
  /// barrier: the copy and the index build run only while the session
  /// is quiescent (no epoch in flight, no append mutating — or
  /// reallocating — the factor buffers). If training holds
  /// the barrier this fails fast with kFailedPrecondition instead of
  /// tearing; retry at the next epoch boundary (e.g. after RunEpoch
  /// returns, which is after the barrier drops). `users`/`items`
  /// (optional, both or neither) are copied in so raw-id lookups resolve
  /// against the vocabulary as of THIS snapshot — a stream-grown session
  /// passes its current maps and cold raw ids stay typed NotFound until
  /// the publish that actually covers them.
  static StatusOr<std::shared_ptr<const FactorSnapshot>> FromSession(
      const Session& session, uint64_t version,
      const io::IdMap* users = nullptr, const io::IdMap* items = nullptr);

  /// Cheap integrity scan gating publication (SnapshotHolder::
  /// PublishValidated): every factor value finite (the padded lanes are
  /// zero-filled, so the whole aligned buffer is scanned), dimensions
  /// positive, stride >= k, an exclusion index covering exactly the user
  /// rows, and — when id maps are present — map sizes matching the
  /// factor row counts. A snapshot that fails here would
  /// serve NaN scores or crash raw-id translation, so a failing publish
  /// is rejected and serving stays on the last-known-good snapshot.
  /// Returns Ok or a FailedPrecondition naming the first defect.
  Status Validate() const;

  /// Chaos/test helper: a copy of `src`'s factors with one NaN planted in
  /// the user factors — the smallest corruption Validate() must catch.
  /// Shares src's exclusion index and keeps its version, so a rejected
  /// publish is distinguishable from a version rollback. Used by the
  /// publish-poison fault and tests; never by production code.
  static SnapshotPtr PoisonedCopy(const FactorSnapshot& src);

  /// Hands the factor buffers to the recycler, if built with one.
  ~FactorSnapshot();

  int32_t num_users() const { return num_users_; }
  int32_t num_items() const { return num_items_; }
  int k() const { return k_; }
  /// Padded row pitch in floats, as core/model.h lays factors out.
  int stride() const { return stride_; }
  uint64_t version() const { return version_; }

  const float* UserRow(int32_t user) const {
    return p_.get() + static_cast<int64_t>(user) * stride_;
  }
  const float* q_data() const { return q_.get(); }

  const RatedIndex& rated_index() const { return *rated_; }
  int64_t NumRated(int32_t user) const { return rated_->NumRated(user); }

  /// Raw-id translation. Snapshots built without id maps treat dense ids
  /// as the external vocabulary (identity mapping).
  bool has_id_maps() const { return has_id_maps_; }
  /// Dense index for an external user id; NotFound for a cold user the
  /// model has no factors for (a typed miss, never a crash).
  StatusOr<int32_t> DenseUser(int64_t raw_user) const;
  /// External id for a dense item index (identity without maps).
  int64_t RawItem(int32_t dense_item) const {
    return has_id_maps_ ? items_.Raw(dense_item)
                        : static_cast<int64_t>(dense_item);
  }

 private:
  FactorSnapshot() = default;

  int32_t num_users_ = 0;
  int32_t num_items_ = 0;
  int k_ = 0;
  int stride_ = 0;
  uint64_t version_ = 0;
  AlignedFloatPtr p_;
  AlignedFloatPtr q_;
  /// Set only with recycler_: the floats p_ and q_ hold, which may be
  /// more than the rows in use.
  size_t p_capacity_ = 0;
  size_t q_capacity_ = 0;
  std::shared_ptr<FactorRecycler> recycler_;
  std::shared_ptr<const RatedIndex> rated_;
  bool has_id_maps_ = false;
  io::IdMap users_;
  io::IdMap items_;
};

/// One TopK query against a snapshot: dense user id and result size.
struct TopKQuery {
  int32_t user = 0;
  int k = 0;
};

/// Answers `queries[0..n)` against one snapshot with a single tile-major
/// sweep of the item factors. Each result is the query's `k`
/// highest-scoring items (score = p_u . q_v through `ops`), excluding the
/// items the user rated, sorted by descending score with ties broken by
/// ascending item id; fewer than `k` when the catalog minus the
/// exclusions is smaller. Scores are bitwise equal to
/// Model::Predict(u, v, ops), and a query's result does not depend on
/// the rest of the batch. Invalid queries (user out of range, k <= 0)
/// get their own InvalidArgument entry without failing the batch. `ops`
/// null means the auto-dispatched default; `scratch` (optional) is
/// reused as the num-queries x tile score buffer so a serving worker
/// allocates nothing per batch.
std::vector<StatusOr<std::vector<ScoredItem>>> BatchTopK(
    const FactorSnapshot& snapshot, const TopKQuery* queries, size_t n,
    const KernelOps* ops = nullptr, std::vector<float>* scratch = nullptr);

/// Snapshot publication: one shared_ptr guarded by a mutex. A reader
/// copies the pointer under the lock and scores against its copy, so a
/// publish never tears or frees a snapshot a query is still using.
class SnapshotHolder {
 public:
  SnapshotHolder() = default;
  /// Installs `initial` unvalidated.
  explicit SnapshotHolder(SnapshotPtr initial) : snap_(std::move(initial)) {}

  SnapshotHolder(const SnapshotHolder&) = delete;
  SnapshotHolder& operator=(const SnapshotHolder&) = delete;

  /// The current snapshot (null only if nothing was ever published).
  /// The returned shared_ptr keeps the snapshot alive for as long as the
  /// caller holds it, across any number of subsequent publishes.
  SnapshotPtr Acquire() const;

  /// Replace the served snapshot after a validity gate: a null snapshot
  /// is InvalidArgument and one failing FactorSnapshot::Validate() is
  /// FailedPrecondition; both install NOTHING — the previously published
  /// snapshot keeps serving untouched, which is the whole rollback policy
  /// (last-known-good is simply never replaced by a bad candidate). Ok
  /// means the snapshot is live. Validation runs before the lock and the
  /// replaced snapshot is released after it, so readers never wait on
  /// either. RecServer and OnlineTrainer count publishes and rejections.
  Status PublishValidated(SnapshotPtr snapshot);

 private:
  mutable std::mutex mu_;
  SnapshotPtr snap_;
};

}  // namespace hsgd::serve
