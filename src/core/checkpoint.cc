#include "core/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
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

/// Folds each rating in as whole words: the (u, v) pair as one u64, then
/// r's bits as one u32, each by an xor, an odd multiply and an xor-shift.
/// Every step is a bijection of the running hash for a fixed word and of
/// the word for a fixed hash, so one changed u, v or r always changes the
/// result; the serial chain keeps it order-sensitive.
uint64_t HashRatings(const Ratings& ratings) {
  static_assert(sizeof(Rating) == 12 && offsetof(Rating, v) == 4 &&
                    offsetof(Rating, r) == 8,
                "a rating hashes as one u64 (u, v) and one u32 (r)");
  uint64_t h = 0x243F6A8885A308D3ull;
  for (const Rating& rating : ratings) {
    uint64_t uv = 0;
    uint32_t r = 0;
    std::memcpy(&uv, &rating.u, sizeof(uv));
    std::memcpy(&r, &rating.r, sizeof(r));
    h = (h ^ uv) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
    h = (h ^ r) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
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

/// The stdio buffer of a checkpoint file. Factor rows pass through it one
/// row at a time, so the file sees megabyte writes and reads.
constexpr size_t kFileBufferBytes = size_t{1} << 20;

/// Bytes written between two early writebacks (Writer::StartWriteback).
constexpr int64_t kWritebackStrideBytes = int64_t{4} << 20;

/// One factor matrix of a Model: `rows` rows of `k` floats, row r at
/// `base + r * stride`. A null `base` is no matrix: the Reader then only
/// checks that the file holds the stored rows, and skips them.
template <typename Float>
struct MatrixRows {
  Float* base = nullptr;
  int64_t rows = 0;
  int k = 0;
  int stride = 0;
};

/// P's and Q's rows of `model` (a Model or a const Model; may be null).
template <typename M>
auto PRows(M* model) {
  MatrixRows<std::remove_pointer_t<decltype(model->p_data())>> m;
  if (model != nullptr) {
    m = {model->p_data(), model->num_rows(), model->k(), model->stride()};
  }
  return m;
}
template <typename M>
auto QRows(M* model) {
  MatrixRows<std::remove_pointer_t<decltype(model->q_data())>> m;
  if (model != nullptr) {
    m = {model->q_data(), model->num_cols(), model->k(), model->stride()};
  }
  return m;
}

/// Scalars go through `operator()`; enums (`Enum`, stored as i32) and
/// bools (`Flag`, stored as u8) never go out as raw bytes, so a corrupt
/// file cannot load an out-of-range bool. `Vector` stores a u64 count
/// first; the Reader refuses a count above `limit`. `Rows` stores a u64
/// count (rows * k) and then each row's first k floats; the Reader
/// demands the shape the header implies.
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
  /// The model's rows as they are; the padding lanes stay behind.
  void Rows(const MatrixRows<const float>& m, int64_t /*rows*/, int /*k*/) {
    (*this)(static_cast<uint64_t>(m.rows) * static_cast<uint64_t>(m.k));
    const size_t row_bytes = sizeof(float) * static_cast<size_t>(m.k);
    for (int64_t r = 0; r < m.rows && ok_; ++r) {
      Bytes(m.base + r * m.stride, row_bytes);
    }
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
    if (written_ - written_back_ >= kWritebackStrideBytes) StartWriteback();
  }

  /// Hands the bytes written since the last call to the disk without
  /// waiting, so the save's closing fsync finds most of the file already
  /// written instead of starting all of it. A failing sync_file_range is
  /// ignored: it only starts writeback, and the fsync decides durability.
  void StartWriteback() {
    if (std::fflush(f_) != 0) {
      ok_ = false;
      return;
    }
    sync_file_range(fileno(f_), written_back_, written_ - written_back_,
                    SYNC_FILE_RANGE_WRITE);
    written_back_ = written_;
  }

  FILE* f_;
  bool ok_ = true;
  int64_t written_ = 0;
  int64_t written_back_ = 0;
};

class Reader {
 public:
  /// `size` is the file's length in bytes: a skip past it fails.
  Reader(FILE* f, int64_t size) : f_(f), size_(size) {}
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
  /// Exactly `rows` rows of `k` floats: read into `m`, which must have
  /// that shape and whose padding lanes end zero, or, for a null `m`,
  /// checked against the file's size and skipped.
  void Rows(const MatrixRows<float>& m, int64_t rows, int k) {
    uint64_t n = 0;
    (*this)(n);
    if (!ok()) return;
    if (n != static_cast<uint64_t>(rows) * static_cast<uint64_t>(k)) {
      error_ = "is corrupt (factor length)";
      return;
    }
    if (m.base == nullptr) {
      SkipFloats(n);
      return;
    }
    if (m.rows != rows || m.k != k) {
      error_ = "does not match the model's shape";
      return;
    }
    const size_t row_bytes = sizeof(float) * static_cast<size_t>(k);
    for (int64_t r = 0; r < rows && ok(); ++r) {
      float* row = m.base + r * m.stride;
      Bytes(row, row_bytes);
      std::fill(row + k, row + m.stride, 0.0f);
    }
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
  /// Moves past `n` stored floats, or fails when the file ends first.
  void SkipFloats(uint64_t n) {
    const int64_t at = std::ftell(f_);
    const bool fits = at >= 0 && at <= size_ &&
                      n <= static_cast<uint64_t>(size_ - at) / sizeof(float);
    if (!fits ||
        std::fseek(f_, static_cast<long>(n * sizeof(float)), SEEK_CUR) != 0) {
      error_ = "is truncated";
    }
  }

  FILE* f_;
  int64_t size_;
  const char* error_ = nullptr;
};

// ---- The file layout, named once ----------------------------------------
//
// Each function lists its fields in file order and is walked by a Writer
// (over a const struct and a const Model) or a Reader (into a Model, or
// over no model to check and skip the factor rows). A new field goes here
// once, with a kCheckpointVersion bump.

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

template <typename IO, typename Checkpoint, typename M>
void CheckpointFields(IO& io, Checkpoint& c, M* model) {
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
  // allocation or read. CheckpointReader::Open then demands the exact
  // trace length.
  const bool sane = HeaderSane(c);
  io.Vector(c.trace, sane ? static_cast<uint64_t>(c.epochs_run) : 0,
            [&io](auto& p) {
              io(p.epoch);
              io(p.time);
              io(p.test_rmse);
              io(p.train_rmse);
            });
  const int k = sane ? c.dataset.k : 0;
  io.Rows(PRows(model), sane ? c.dataset.num_rows : 0, k);
  io.Rows(QRows(model), sane ? c.dataset.num_cols : 0, k);
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

/// fsync(2) of a file does not persist its directory entry: after the
/// rename, `path`'s directory is synced too.
Status SyncDirectoryOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  const bool synced = fd >= 0 && fsync(fd) == 0;
  if (fd >= 0) close(fd);
  if (!synced) {
    return Status::Internal(
        StrFormat("cannot fsync checkpoint directory '%s'", dir.c_str()));
  }
  return Status::Ok();
}

}  // namespace

void SetCheckpointWriteFailpoint(int64_t bytes) {
  g_write_failpoint = bytes;
}

Status WriteCheckpoint(const std::string& path, const SessionCheckpoint& ckpt,
                       const Model& model, int64_t* bytes_written) {
  if (bytes_written != nullptr) *bytes_written = 0;
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(
        StrFormat("cannot open '%s' for writing", tmp.c_str()));
  }
  const std::unique_ptr<char[]> buffer(new char[kFileBufferBytes]);
  std::setvbuf(f, buffer.get(), _IOFBF, kFileBufferBytes);
  Writer w(f);
  w(kCheckpointMagic);
  w(kCheckpointVersion);
  CheckpointFields(w, ckpt, &model);
  // On disk before the rename makes it the checkpoint at `path`.
  const bool write_ok =
      w.ok() && std::fflush(f) == 0 && fsync(fileno(f)) == 0;
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
  HSGD_RETURN_IF_ERROR(SyncDirectoryOf(path));
  if (bytes_written != nullptr) *bytes_written = w.written();
  return Status::Ok();
}

StatusOr<CheckpointReader> CheckpointReader::Open(const std::string& path) {
  CheckpointReader file;
  file.path_ = path;
  file.file_.reset(std::fopen(path.c_str(), "rb"));
  FILE* f = file.file_.get();
  if (f == nullptr) {
    return Status::NotFound(
        StrFormat("checkpoint '%s' does not exist", path.c_str()));
  }
  file.buffer_.reset(new char[kFileBufferBytes]);
  std::setvbuf(f, file.buffer_.get(), _IOFBF, kFileBufferBytes);
  struct stat st{};
  if (fstat(fileno(f), &st) == 0) file.size_ = st.st_size;
  Reader r(f, file.size_);
  uint64_t magic = 0;
  uint32_t version = 0;
  r(magic);
  r(version);
  const bool is_checkpoint = r.ok() && magic == kCheckpointMagic;
  SessionCheckpoint& ckpt = file.state_;
  if (is_checkpoint && version == kCheckpointVersion) {
    CheckpointFields(r, ckpt, static_cast<Model*>(nullptr));
  }
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
  if (ckpt.rating_count <= 0 || !std::isfinite(ckpt.rating_sum)) {
    return corrupt("rating moments");
  }
  return file;
}

Status CheckpointReader::ReadFactors(Model* model) {
  const DatasetFingerprint& shape = state_.dataset;
  if (model->num_rows() != shape.num_rows ||
      model->num_cols() != shape.num_cols || model->k() != shape.k) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint '%s' holds %dx%d factors at k=%d, the model is %dx%d "
        "at k=%d",
        path_.c_str(), shape.num_rows, shape.num_cols, shape.k,
        model->num_rows(), model->num_cols(), model->k()));
  }
  // The same walk as Open's, from the top of the same open file, now
  // with a model to read the rows into.
  std::rewind(file_.get());
  Reader r(file_.get(), size_);
  uint64_t magic = 0;
  uint32_t version = 0;
  r(magic);
  r(version);
  SessionCheckpoint again;
  CheckpointFields(r, again, model);
  if (!r.ok()) {
    return Status::InvalidArgument(
        StrFormat("checkpoint '%s' %s", path_.c_str(), r.error()));
  }
  return Status::Ok();
}

StatusOr<SessionCheckpoint> ReadCheckpoint(const std::string& path) {
  auto file = CheckpointReader::Open(path);
  if (!file.ok()) return file.status();
  return file->state();
}

}  // namespace hsgd
