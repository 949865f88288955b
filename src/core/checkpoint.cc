#include "core/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <type_traits>

#include "util/strings.h"

namespace hsgd {

namespace {

template <typename T>
bool SameBits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

}  // namespace

bool DatasetFingerprint::operator==(const DatasetFingerprint& other) const {
  return num_rows == other.num_rows && num_cols == other.num_cols &&
         k == other.k && train_nnz == other.train_nnz &&
         test_nnz == other.test_nnz && train_hash == other.train_hash &&
         test_hash == other.test_hash &&
         SameBits(learning_rate, other.learning_rate) &&
         SameBits(lambda_p, other.lambda_p) &&
         SameBits(lambda_q, other.lambda_q) &&
         SameBits(target_rmse, other.target_rmse);
}

namespace {

uint64_t HashRatings(const Ratings& ratings) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  auto mix = [&h](const void* data, size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;  // FNV prime
    }
  };
  for (const Rating& r : ratings) {
    mix(&r.u, sizeof(r.u));
    mix(&r.v, sizeof(r.v));
    mix(&r.r, sizeof(r.r));
  }
  return h;
}

}  // namespace

DatasetFingerprint FingerprintDataset(const Dataset& dataset) {
  DatasetFingerprint fp;
  fp.num_rows = dataset.num_rows;
  fp.num_cols = dataset.num_cols;
  fp.k = dataset.params.k;
  fp.train_nnz = dataset.train_size();
  fp.test_nnz = dataset.test_size();
  fp.train_hash = HashRatings(dataset.train);
  fp.test_hash = HashRatings(dataset.test);
  fp.learning_rate = dataset.params.learning_rate;
  fp.lambda_p = dataset.params.lambda_p;
  fp.lambda_q = dataset.params.lambda_q;
  fp.target_rmse = dataset.target_rmse;
  return fp;
}

namespace {

/// Write failpoint (tests): fail after this many bytes; < 0 disabled.
int64_t g_write_failpoint = -1;

static_assert(sizeof(int) == 4, "checkpoint ints are 32-bit");

/// Cap on the one count that no field read before it bounds.
constexpr uint64_t kMaxGpuStreams = 4096;

/// Scalars go through `operator()`; enums (`Enum`, stored as i32) and
/// bools (`Flag`, stored as u8) never go out as raw bytes, so a corrupt
/// file cannot load an out-of-range bool. `Vector` and `Array` store a
/// u64 count first; the Reader refuses a count above `limit`.
class Writer {
 public:
  explicit Writer(FILE* f) : f_(f) {}
  bool ok() const { return ok_; }
  int64_t written() const { return written_; }

  template <typename T>
  void operator()(const T& v) {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    Bytes(&v, sizeof(v));
  }
  template <typename E>
  void Enum(E e) {
    (*this)(static_cast<int32_t>(e));
  }
  void Flag(bool b) { (*this)(static_cast<uint8_t>(b ? 1 : 0)); }
  template <typename T, typename PerElement>
  void Vector(const std::vector<T>& v, uint64_t /*limit*/,
              PerElement per_element) {
    (*this)(static_cast<uint64_t>(v.size()));
    for (const T& e : v) per_element(e);
  }
  /// The raw elements of a float vector.
  template <typename Container>
  void Array(const Container& v, uint64_t /*limit*/) {
    (*this)(static_cast<uint64_t>(v.size()));
    Bytes(v.data(), v.size() * sizeof(v[0]));
  }

 private:
  void Bytes(const void* data, size_t bytes) {
    if (!ok_) return;
    if (g_write_failpoint >= 0) {
      // Simulate a short write at the failpoint: part of the payload
      // lands on disk, then the device reports no space.
      const int64_t room = g_write_failpoint - written_;
      if (room < static_cast<int64_t>(bytes)) {
        if (room > 0) {
          std::fwrite(data, 1, static_cast<size_t>(room), f_);
          written_ += room;
        }
        ok_ = false;
        return;
      }
    }
    if (std::fwrite(data, 1, bytes, f_) != bytes) {
      ok_ = false;
      return;
    }
    written_ += static_cast<int64_t>(bytes);
  }

  FILE* f_;
  bool ok_ = true;
  int64_t written_ = 0;
};

class Reader {
 public:
  explicit Reader(FILE* f) : f_(f) {}
  bool ok() const { return error_ == nullptr; }
  /// Why reading stopped, as a predicate of the file; null while ok.
  const char* error() const { return error_; }

  template <typename T>
  void operator()(T& v) {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    Bytes(&v, sizeof(v));
  }
  template <typename E>
  void Enum(E& e) {
    int32_t v = 0;
    (*this)(v);
    e = static_cast<E>(v);
  }
  void Flag(bool& b) {
    uint8_t v = 0;
    (*this)(v);
    b = v != 0;
  }
  template <typename T, typename PerElement>
  void Vector(std::vector<T>& v, uint64_t limit, PerElement per_element) {
    v.resize(Count(limit));
    for (T& e : v) per_element(e);
  }
  template <typename Container>
  void Array(Container& v, uint64_t limit) {
    v.resize(Count(limit));
    Bytes(v.data(), v.size() * sizeof(v[0]));
  }

 private:
  void Bytes(void* data, size_t bytes) {
    if (ok() && std::fread(data, 1, bytes, f_) != bytes) {
      error_ = "is truncated";
    }
  }
  /// A stored count, or 0 once reading has failed. A count above
  /// `limit` fails the read before anything is allocated for it.
  uint64_t Count(uint64_t limit) {
    uint64_t n = 0;
    (*this)(n);
    if (ok() && n > limit) error_ = "is corrupt (length over limit)";
    return ok() ? n : 0;
  }

  FILE* f_;
  const char* error_ = nullptr;
};

// ---- The file layout, named once ----------------------------------------
//
// Each function lists its fields in file order and is walked by a Writer
// (over a const struct) or a Reader. A new field goes here once, with a
// kCheckpointVersion bump.

template <typename IO, typename State>
void RngFields(IO& io, State& rng) {
  for (auto& word : rng.s) io(word);
  io.Flag(rng.has_spare);
  io(rng.spare);
}

template <typename IO, typename Config>
void ConfigFields(IO& io, Config& c) {
  io.Enum(c.algorithm);
  io(c.max_epochs);
  io(c.seed);
  io.Flag(c.use_dataset_target);
  io.Enum(c.cost_model);
  io.Flag(c.dynamic_scheduling);
  io(c.eval_threads);
  io.Enum(c.kernel);
  io(c.hardware.num_cpu_threads);
  io(c.hardware.num_gpus);
  io(c.hardware.speed_variability);
  io(c.hardware.cpu_updates_per_sec_k128);
  io(c.hardware.gpu_workers);
}

/// Header fields every later count is checked against.
bool HeaderSane(const SessionCheckpoint& c) {
  return c.dataset.num_rows > 0 && c.dataset.num_cols > 0 &&
         c.dataset.k > 0 && c.epochs_run >= 0 &&
         c.epochs_run <= c.config.max_epochs &&
         c.config.max_epochs <= (1 << 24);
}

template <typename IO, typename Checkpoint>
void CheckpointFields(IO& io, Checkpoint& c) {
  ConfigFields(io, c.config);
  io(c.dataset.num_rows);
  io(c.dataset.num_cols);
  io(c.dataset.k);
  io(c.dataset.train_nnz);
  io(c.dataset.test_nnz);
  io(c.dataset.train_hash);
  io(c.dataset.test_hash);
  // v9: the hyper-parameters and target.
  io(c.dataset.learning_rate);
  io(c.dataset.lambda_p);
  io(c.dataset.lambda_q);
  io(c.dataset.target_rmse);
  io(c.epochs_run);
  io.Flag(c.reached_target);
  io(c.sim_clock);
  io(c.block_tasks);
  io(c.gpu_nnz);
  io(c.total_nnz_processed);
  io(c.duration_count);
  io(c.duration_sum);
  io(c.duration_sumsq);
  RngFields(io, c.scheduler_rng);
  io(c.stolen_by_gpus);
  io(c.stolen_by_cpus);
  // v5: growth state + WAL high-water mark.
  RngFields(io, c.growth_rng);
  io(c.rating_sum);
  io(c.rating_count);
  io(c.wal_seq);
  io.Vector(c.gpu_streams, kMaxGpuStreams, [&io](auto& s) {
    io(s.h2d_free);
    io(s.kernel_free);
    io(s.d2h_free);
  });
  // Every later count is implied by the header just read, so a corrupt
  // count fails in the Reader instead of attempting a multi-GB
  // allocation. ReadCheckpoint then demands the exact counts.
  const bool sane = HeaderSane(c);
  const auto k = static_cast<uint64_t>(c.dataset.k);
  io.Vector(c.trace, sane ? static_cast<uint64_t>(c.epochs_run) : 0,
            [&io](auto& p) {
              io(p.epoch);
              io(p.time);
              io(p.test_rmse);
              io(p.train_rmse);
            });
  io.Array(c.p, sane ? static_cast<uint64_t>(c.dataset.num_rows) * k : 0);
  io.Array(c.q, sane ? static_cast<uint64_t>(c.dataset.num_cols) * k : 0);
}

/// Range/finiteness checks on a config read back from disk. The fields
/// were round-tripped through raw bytes, so a corrupt file can smuggle in
/// a NaN CPU rate or a billion-GPU fleet; reject anything a config
/// could not legitimately hold before Restore rebuilds a session from it.
Status ValidateStoredConfig(const TrainConfig& c) {
  const int32_t algo = static_cast<int32_t>(c.algorithm);
  const int32_t cost = static_cast<int32_t>(c.cost_model);
  const int32_t kernel = static_cast<int32_t>(c.kernel);
  // Saved configs always hold a concrete kernel (Create pins auto before
  // any save), so kAuto here is corruption — and letting it through
  // would re-resolve to the machine-best variant on restore, silently
  // changing the numerics the checkpoint promises to reproduce.
  if (algo < static_cast<int32_t>(Algorithm::kCpuOnly) ||
      algo > static_cast<int32_t>(Algorithm::kHsgdStar) ||
      cost < static_cast<int32_t>(CostModelKind::kQilin) ||
      cost > static_cast<int32_t>(CostModelKind::kOurs) ||
      kernel < static_cast<int32_t>(KernelKind::kScalar) ||
      kernel > static_cast<int32_t>(KernelKind::kAvx512)) {
    return Status::InvalidArgument("enum fields");
  }
  return ValidateConfigRanges(c);
}

}  // namespace

void SetCheckpointWriteFailpoint(int64_t bytes) {
  g_write_failpoint = bytes;
}

Status WriteCheckpoint(const std::string& path,
                       const SessionCheckpoint& ckpt,
                       int64_t* bytes_written) {
  if (bytes_written != nullptr) *bytes_written = 0;
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(
        StrFormat("cannot open '%s' for writing", tmp.c_str()));
  }
  Writer w(f);
  w(kCheckpointMagic);
  w(kCheckpointVersion);
  CheckpointFields(w, ckpt);
  const bool write_ok = w.ok();
  const bool close_ok = std::fclose(f) == 0;
  if (!write_ok || !close_ok) {
    std::remove(tmp.c_str());
    return Status::Internal(
        StrFormat("failed writing checkpoint '%s'", tmp.c_str()));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal(StrFormat("cannot rename '%s' to '%s'",
                                      tmp.c_str(), path.c_str()));
  }
  if (bytes_written != nullptr) *bytes_written = w.written();
  return Status::Ok();
}

StatusOr<SessionCheckpoint> ReadCheckpoint(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(
        StrFormat("checkpoint '%s' does not exist", path.c_str()));
  }
  Reader r(f);
  uint64_t magic = 0;
  uint32_t version = 0;
  r(magic);
  r(version);
  const bool is_checkpoint = r.ok() && magic == kCheckpointMagic;
  SessionCheckpoint ckpt;
  if (is_checkpoint && version == kCheckpointVersion) {
    CheckpointFields(r, ckpt);
  }
  std::fclose(f);
  if (!is_checkpoint) {
    return Status::InvalidArgument(
        StrFormat("'%s' is not an hsgd checkpoint", path.c_str()));
  }
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument(
        StrFormat("checkpoint '%s' has version %u, expected %u",
                  path.c_str(), version, kCheckpointVersion));
  }
  if (!r.ok()) {
    return Status::InvalidArgument(
        StrFormat("checkpoint '%s' %s", path.c_str(), r.error()));
  }
  auto corrupt = [&path](const std::string& what) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint '%s' is corrupt (%s)", path.c_str(), what.c_str()));
  };
  const Status config_ok = ValidateStoredConfig(ckpt.config);
  if (!config_ok.ok()) return corrupt(config_ok.message());
  if (!HeaderSane(ckpt)) return corrupt("header fields");
  if (ckpt.trace.size() != static_cast<size_t>(ckpt.epochs_run)) {
    return corrupt("trace length");
  }
  const auto k = static_cast<size_t>(ckpt.dataset.k);
  if (ckpt.p.size() != static_cast<size_t>(ckpt.dataset.num_rows) * k ||
      ckpt.q.size() != static_cast<size_t>(ckpt.dataset.num_cols) * k) {
    return corrupt("factor length");
  }
  return ckpt;
}

}  // namespace hsgd
