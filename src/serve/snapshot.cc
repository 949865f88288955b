#include "serve/snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "core/session.h"
#include "util/strings.h"

namespace hsgd::serve {

void FactorRecycler::Take(size_t p_floats, size_t q_floats, Buffer* p,
                          Buffer* q) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    *p = std::exchange(p_, Buffer{});
    *q = std::exchange(q_, Buffer{});
  }
  auto fit = [](Buffer* buffer, size_t floats) {
    if (buffer->data != nullptr && buffer->capacity >= floats) return;
    buffer->capacity = floats + floats / 8;
    buffer->data = AllocateAlignedFloats(buffer->capacity);
  };
  fit(p, p_floats);
  fit(q, q_floats);
}

void FactorRecycler::Keep(Buffer p, Buffer q) {
  Buffer older_p, older_q;  // freed after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  older_p = std::exchange(p_, std::move(p));
  older_q = std::exchange(q_, std::move(q));
}

FactorSnapshot::~FactorSnapshot() {
  if (recycler_ != nullptr) {
    recycler_->Keep({std::move(p_), p_capacity_}, {std::move(q_), q_capacity_});
  }
}

StatusOr<std::shared_ptr<const FactorSnapshot>> FactorSnapshot::FromModel(
    const Model& model, std::shared_ptr<const RatedIndex> rated,
    uint64_t version, const io::IdMap* users, const io::IdMap* items,
    std::shared_ptr<FactorRecycler> recycler) {
  if (rated == nullptr) {
    return Status::InvalidArgument("snapshot needs a rated-item index");
  }
  if (rated->num_users() != model.num_rows()) {
    return Status::InvalidArgument(StrFormat(
        "rated-item index covers %d users, the model has %d",
        rated->num_users(), model.num_rows()));
  }
  auto snapshot = std::shared_ptr<FactorSnapshot>(new FactorSnapshot());
  snapshot->num_users_ = model.num_rows();
  snapshot->num_items_ = model.num_cols();
  snapshot->k_ = model.k();
  snapshot->stride_ = model.stride();
  snapshot->version_ = version;
  // The model is already in the padded aligned layout the kernels want;
  // one memcpy per matrix and the snapshot is scoring-ready. A recycled
  // buffer needs no zero-fill: the copy covers every padded row in use.
  if (recycler != nullptr) {
    FactorRecycler::Buffer p, q;
    recycler->Take(model.p_size(), model.q_size(), &p, &q);
    snapshot->p_ = std::move(p.data);
    snapshot->q_ = std::move(q.data);
    snapshot->p_capacity_ = p.capacity;
    snapshot->q_capacity_ = q.capacity;
    snapshot->recycler_ = std::move(recycler);
  } else {
    snapshot->p_ = AllocateAlignedFloats(model.p_size());
    snapshot->q_ = AllocateAlignedFloats(model.q_size());
  }
  std::memcpy(snapshot->p_.get(), model.p_data(),
              model.p_size() * sizeof(float));
  std::memcpy(snapshot->q_.get(), model.q_data(),
              model.q_size() * sizeof(float));
  snapshot->rated_ = std::move(rated);
  if (users != nullptr && items != nullptr) {
    if (users->size() != model.num_rows() ||
        items->size() != model.num_cols()) {
      return Status::InvalidArgument(StrFormat(
          "id maps (%d users, %d items) do not match the model "
          "(%d x %d)",
          users->size(), items->size(), model.num_rows(),
          model.num_cols()));
    }
    snapshot->users_ = *users;
    snapshot->items_ = *items;
    snapshot->has_id_maps_ = true;
  } else if (users != nullptr || items != nullptr) {
    return Status::InvalidArgument(
        "id maps must be given for both users and items, or neither");
  }
  return std::shared_ptr<const FactorSnapshot>(std::move(snapshot));
}

StatusOr<std::shared_ptr<const FactorSnapshot>> FactorSnapshot::FromModel(
    const Model& model, const Ratings& rated, uint64_t version,
    const io::IdMap* users, const io::IdMap* items) {
  return FromModel(model,
                   std::make_shared<const RatedIndex>(RatedIndex::Build(
                       rated, model.num_rows(), model.num_cols())),
                   version, users, items);
}

StatusOr<std::shared_ptr<const FactorSnapshot>> FactorSnapshot::FromSession(
    const Session& session, uint64_t version, const io::IdMap* users,
    const io::IdMap* items) {
  // The copy must not race an epoch's SGD updates, which the session
  // thread applies block by block (torn factor rows), or an append (the
  // grow path REALLOCATES the factor buffers, so a concurrent copy would
  // read freed memory). VisitQuiesced try-locks the epoch barrier:
  // success means the factors are settled for the whole copy; contention
  // surfaces as FailedPrecondition.
  StatusOr<std::shared_ptr<const FactorSnapshot>> result =
      Status::FailedPrecondition("snapshot attempted mid-epoch");
  HSGD_RETURN_IF_ERROR(session.VisitQuiesced([&]() -> Status {
    result = FromModel(session.model(), session.dataset().train, version,
                       users, items);
    return Status::Ok();
  }));
  return result;
}

namespace {

/// Index of the first non-finite float in [data, data+n), or -1. A
/// float is non-finite exactly when its exponent bits are all ones. Each
/// block of kFiniteBlock floats is tested without a branch per float, so
/// the test vectorizes; only a block that fails is scanned again, float
/// by float, for its first bad index.
int64_t FirstNonFinite(const float* data, int64_t n) {
  constexpr int64_t kFiniteBlock = 1024;
  constexpr uint32_t kExponent = 0x7f800000u;
  for (int64_t begin = 0; begin < n; begin += kFiniteBlock) {
    const int64_t end = std::min(n, begin + kFiniteBlock);
    uint32_t bad = 0;
    for (int64_t i = begin; i < end; ++i) {
      uint32_t bits = 0;
      std::memcpy(&bits, data + i, sizeof(bits));
      bad |= static_cast<uint32_t>((bits & kExponent) == kExponent);
    }
    if (bad == 0) continue;
    for (int64_t i = begin; i < end; ++i) {
      if (!std::isfinite(data[i])) return i;
    }
  }
  return -1;
}

}  // namespace

Status FactorSnapshot::Validate() const {
  if (num_users_ <= 0 || num_items_ <= 0 || k_ <= 0) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot v%llu has non-positive dimensions (%d x %d, k=%d)",
        static_cast<unsigned long long>(version_), num_users_, num_items_,
        k_));
  }
  if (stride_ < k_) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot v%llu stride %d < rank %d",
        static_cast<unsigned long long>(version_), stride_, k_));
  }
  if (p_ == nullptr || q_ == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("snapshot v%llu is missing factor buffers",
                  static_cast<unsigned long long>(version_)));
  }
  if (rated_ == nullptr || rated_->num_users() != num_users_) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot v%llu rated-item index does not cover its %d user rows",
        static_cast<unsigned long long>(version_), num_users_));
  }
  if (has_id_maps_ &&
      (users_.size() != num_users_ || items_.size() != num_items_)) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot v%llu id maps (%d users, %d items) do not cover the "
        "factors (%d x %d)",
        static_cast<unsigned long long>(version_), users_.size(),
        items_.size(), num_users_, num_items_));
  }
  // Padding lanes are zero-filled by AllocateAlignedFloats, so scanning
  // the whole padded buffers needs no per-row bounds logic.
  const int64_t p_n = static_cast<int64_t>(num_users_) * stride_;
  const int64_t q_n = static_cast<int64_t>(num_items_) * stride_;
  int64_t bad = FirstNonFinite(p_.get(), p_n);
  if (bad >= 0) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot v%llu has a non-finite user factor (row %lld lane %lld)",
        static_cast<unsigned long long>(version_),
        static_cast<long long>(bad / stride_),
        static_cast<long long>(bad % stride_)));
  }
  bad = FirstNonFinite(q_.get(), q_n);
  if (bad >= 0) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot v%llu has a non-finite item factor (row %lld lane %lld)",
        static_cast<unsigned long long>(version_),
        static_cast<long long>(bad / stride_),
        static_cast<long long>(bad % stride_)));
  }
  return Status::Ok();
}

SnapshotPtr FactorSnapshot::PoisonedCopy(const FactorSnapshot& src) {
  auto copy = std::shared_ptr<FactorSnapshot>(new FactorSnapshot());
  copy->num_users_ = src.num_users_;
  copy->num_items_ = src.num_items_;
  copy->k_ = src.k_;
  copy->stride_ = src.stride_;
  copy->version_ = src.version_;
  const size_t p_n = static_cast<size_t>(src.num_users_) * src.stride_;
  const size_t q_n = static_cast<size_t>(src.num_items_) * src.stride_;
  copy->p_ = AllocateAlignedFloats(p_n);
  copy->q_ = AllocateAlignedFloats(q_n);
  std::memcpy(copy->p_.get(), src.p_.get(), p_n * sizeof(float));
  std::memcpy(copy->q_.get(), src.q_.get(), q_n * sizeof(float));
  copy->rated_ = src.rated_;
  copy->users_ = src.users_;
  copy->items_ = src.items_;
  copy->has_id_maps_ = src.has_id_maps_;
  // One NaN in the first live lane — the minimal corruption the publish
  // gate must reject.
  copy->p_.get()[0] = std::numeric_limits<float>::quiet_NaN();
  return copy;
}

StatusOr<int32_t> FactorSnapshot::DenseUser(int64_t raw_user) const {
  if (!has_id_maps_) {
    if (raw_user < 0 || raw_user >= num_users_) {
      return Status::NotFound(StrFormat(
          "cold user: id %lld outside the model's [0, %d) user range",
          static_cast<long long>(raw_user), num_users_));
    }
    return static_cast<int32_t>(raw_user);
  }
  const int32_t dense = users_.Lookup(raw_user);
  if (dense < 0) {
    return Status::NotFound(StrFormat(
        "cold user: raw id %lld has no trained factors",
        static_cast<long long>(raw_user)));
  }
  return dense;
}

std::vector<StatusOr<std::vector<ScoredItem>>> BatchTopK(
    const FactorSnapshot& snapshot, const TopKQuery* queries, size_t n,
    const KernelOps* ops, std::vector<float>* scratch) {
  if (ops == nullptr) ops = &DefaultKernelOps();
  std::vector<float> local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;

  // Validate up front; only valid queries join the batched sweep.
  std::vector<Status> errors(n, Status::Ok());
  std::vector<size_t> valid;
  valid.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const TopKQuery& query = queries[i];
    if (query.user < 0 || query.user >= snapshot.num_users()) {
      errors[i] = Status::InvalidArgument(
          StrFormat("user %d out of range [0, %d)", query.user,
                    snapshot.num_users()));
    } else if (query.k <= 0) {
      errors[i] = Status::InvalidArgument(
          StrFormat("k must be positive, got %d", query.k));
    } else {
      valid.push_back(i);
    }
  }

  const RatedIndex& rated = snapshot.rated_index();
  std::vector<const float*> rows;
  std::vector<TopKAccumulator> accs;
  rows.reserve(valid.size());
  accs.reserve(valid.size());
  for (size_t i : valid) {
    const int32_t user = queries[i].user;
    rows.push_back(snapshot.UserRow(user));
    accs.emplace_back(queries[i].k, rated.Begin(user), rated.End(user));
  }

  // The batched sweep: tiles outermost, so each Q tile crosses memory
  // once and serves every query while cache-resident. ScoreBlockBatch
  // scores each query's row exactly as a lone score_block call would, so
  // a query's result does not depend on the rest of the batch.
  const int32_t num_items = snapshot.num_items();
  if (!valid.empty()) {
    const size_t needed = valid.size() * static_cast<size_t>(kTopKTile);
    if (scratch->size() < needed) scratch->resize(needed);
    for (int32_t tile_begin = 0; tile_begin < num_items;
         tile_begin += kTopKTile) {
      const int32_t count = std::min(kTopKTile, num_items - tile_begin);
      ScoreBlockBatch(*ops, rows.data(), static_cast<int>(rows.size()),
                      snapshot.q_data(), snapshot.stride(), snapshot.k(),
                      tile_begin, count, scratch->data());
      for (size_t vi = 0; vi < valid.size(); ++vi) {
        accs[vi].Consume(tile_begin, count,
                         scratch->data() + vi * static_cast<size_t>(count));
      }
    }
  }

  std::vector<StatusOr<std::vector<ScoredItem>>> results;
  results.reserve(n);
  size_t vi = 0;
  for (size_t i = 0; i < n; ++i) {
    if (errors[i].ok()) {
      results.push_back(accs[vi++].Finish());
    } else {
      results.push_back(errors[i]);
    }
  }
  return results;
}

SnapshotPtr SnapshotHolder::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snap_;
}

Status SnapshotHolder::PublishValidated(SnapshotPtr snapshot) {
  // Reject without touching snap_: the last-known-good snapshot keeps
  // serving, which is the entire rollback policy.
  if (snapshot == nullptr) {
    return Status::InvalidArgument("refusing to publish a null snapshot");
  }
  HSGD_RETURN_IF_ERROR(snapshot->Validate());
  SnapshotPtr replaced;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  replaced = std::exchange(snap_, std::move(snapshot));
  return Status::Ok();
}

}  // namespace hsgd::serve
