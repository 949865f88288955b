#include "core/checkpoint.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/strings.h"

namespace hsgd {

bool DatasetFingerprint::operator==(const DatasetFingerprint& other) const {
  return num_rows == other.num_rows && num_cols == other.num_cols &&
         k == other.k && train_nnz == other.train_nnz &&
         test_nnz == other.test_nnz && train_hash == other.train_hash &&
         test_hash == other.test_hash;
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
  return fp;
}

namespace {

/// Write failpoint (tests): fail after this many bytes; < 0 disabled.
int64_t g_write_failpoint = -1;

class Writer {
 public:
  explicit Writer(FILE* f) : f_(f) {}
  bool ok() const { return ok_; }

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
  void U8(uint8_t v) { Bytes(&v, sizeof(v)); }
  void I32(int32_t v) { Bytes(&v, sizeof(v)); }
  void U32(uint32_t v) { Bytes(&v, sizeof(v)); }
  void I64(int64_t v) { Bytes(&v, sizeof(v)); }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }

  int64_t written() const { return written_; }

 private:
  FILE* f_;
  bool ok_ = true;
  int64_t written_ = 0;
};

class Reader {
 public:
  explicit Reader(FILE* f) : f_(f) {}
  bool ok() const { return ok_; }

  void Bytes(void* data, size_t bytes) {
    if (ok_ && std::fread(data, 1, bytes, f_) != bytes) ok_ = false;
  }
  /// Poison the stream on a semantic error (e.g. an absurd length).
  void Fail() { ok_ = false; }
  uint8_t U8() { return Get<uint8_t>(); }
  int32_t I32() { return Get<int32_t>(); }
  uint32_t U32() { return Get<uint32_t>(); }
  int64_t I64() { return Get<int64_t>(); }
  uint64_t U64() { return Get<uint64_t>(); }
  double F64() { return Get<double>(); }

 private:
  template <typename T>
  T Get() {
    T v{};
    Bytes(&v, sizeof(v));
    return v;
  }
  FILE* f_;
  bool ok_ = true;
};

void WriteConfig(Writer* w, const TrainConfig& config) {
  w->I32(static_cast<int32_t>(config.algorithm));
  w->I32(config.max_epochs);
  w->U64(config.seed);
  w->U8(config.use_dataset_target ? 1 : 0);
  w->I32(static_cast<int32_t>(config.cost_model));
  w->U8(config.dynamic_scheduling ? 1 : 0);
  w->I32(config.eval_threads);
  w->I32(static_cast<int32_t>(config.kernel));
  w->U8(config.calibrate ? 1 : 0);
  w->I32(config.hardware.num_cpu_threads);
  w->I32(config.hardware.num_gpus);
  w->F64(config.hardware.speed_variability);
  w->F64(config.hardware.cpu.updates_per_sec_k128);
  w->F64(config.hardware.cpu.warmup_nnz);
  w->F64(config.hardware.cpu.speed_factor);
  w->I32(config.hardware.gpu.parallel_workers);
  w->F64(config.hardware.gpu.worker_point_rate_k128);
  w->F64(config.hardware.gpu.kernel_launch_overhead);
  w->F64(config.hardware.gpu.device_mem_bw);
  w->F64(config.hardware.gpu.pcie_h2d_peak_gbps);
  w->F64(config.hardware.gpu.pcie_d2h_peak_gbps);
  w->F64(config.hardware.gpu.pcie_latency);
  w->F64(config.hardware.gpu.speed_factor);
  // v4: fault-tolerance policy.
  w->I32(config.fault.autosave_every);
  w->U64(config.fault.autosave_path.size());
  w->Bytes(config.fault.autosave_path.data(),
           config.fault.autosave_path.size());
  w->I32(config.fault.checkpoint_retry.max_attempts);
  w->F64(config.fault.checkpoint_retry.initial_backoff);
  w->F64(config.fault.checkpoint_retry.multiplier);
  w->F64(config.fault.checkpoint_retry.jitter);
  w->F64(config.fault.checkpoint_retry.max_backoff);
  w->F64(config.fault.lease_deadline_factor);
  w->I32(static_cast<int32_t>(config.fault.on_device_loss));
}

/// Range/finiteness checks on a config read back from disk. The fields
/// were round-tripped through raw bytes, so a corrupt file can smuggle in
/// NaN device speeds or a billion-GPU fleet; reject anything a config
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
  // Same reasoning for calibrate: Create clears it after substituting the
  // measured rate, so a stored true would re-measure on restore and
  // silently diverge from the persisted schedule.
  if (c.calibrate) {
    return Status::InvalidArgument("calibrate flag set");
  }
  if (c.max_epochs < 1 || c.max_epochs > (1 << 24) ||
      c.eval_threads < 1 || c.eval_threads > (1 << 20) ||
      c.hardware.num_cpu_threads < 0 ||
      c.hardware.num_cpu_threads > (1 << 20) ||
      c.hardware.num_gpus < 0 || c.hardware.num_gpus > 4096) {
    return Status::InvalidArgument("worker counts");
  }
  // Physical quantities: rates, bandwidths and speed factors must be
  // positive and finite; overheads and latencies nonnegative and finite.
  for (double positive :
       {c.hardware.cpu.updates_per_sec_k128, c.hardware.cpu.speed_factor,
        c.hardware.gpu.worker_point_rate_k128, c.hardware.gpu.device_mem_bw,
        c.hardware.gpu.pcie_h2d_peak_gbps, c.hardware.gpu.pcie_d2h_peak_gbps,
        c.hardware.gpu.speed_factor}) {
    if (!std::isfinite(positive) || positive <= 0.0) {
      return Status::InvalidArgument("device rates");
    }
  }
  for (double nonnegative :
       {c.hardware.speed_variability, c.hardware.cpu.warmup_nnz,
        c.hardware.gpu.kernel_launch_overhead,
        c.hardware.gpu.pcie_latency}) {
    if (!std::isfinite(nonnegative) || nonnegative < 0.0) {
      return Status::InvalidArgument("device overheads");
    }
  }
  if (c.hardware.gpu.parallel_workers < 1 ||
      c.hardware.gpu.parallel_workers > (1 << 20)) {
    return Status::InvalidArgument("GPU worker count");
  }
  // v4 fault-policy fields.
  const int32_t policy = static_cast<int32_t>(c.fault.on_device_loss);
  if (policy < static_cast<int32_t>(DegradePolicy::kContinueDegraded) ||
      policy > static_cast<int32_t>(DegradePolicy::kAbort)) {
    return Status::InvalidArgument("degradation policy");
  }
  if (c.fault.autosave_every < 0 || c.fault.autosave_every > (1 << 24) ||
      c.fault.checkpoint_retry.max_attempts < 1 ||
      c.fault.checkpoint_retry.max_attempts > 1000) {
    return Status::InvalidArgument("fault policy counters");
  }
  if (!std::isfinite(c.fault.lease_deadline_factor) ||
      !std::isfinite(c.fault.checkpoint_retry.initial_backoff) ||
      c.fault.checkpoint_retry.initial_backoff < 0.0 ||
      !std::isfinite(c.fault.checkpoint_retry.multiplier) ||
      c.fault.checkpoint_retry.multiplier < 1.0 ||
      !std::isfinite(c.fault.checkpoint_retry.jitter) ||
      c.fault.checkpoint_retry.jitter < 0.0 ||
      c.fault.checkpoint_retry.jitter > 1.0 ||
      !std::isfinite(c.fault.checkpoint_retry.max_backoff) ||
      c.fault.checkpoint_retry.max_backoff < 0.0) {
    return Status::InvalidArgument("fault policy values");
  }
  return Status::Ok();
}

TrainConfig ReadConfig(Reader* r) {
  TrainConfig config;
  config.algorithm = static_cast<Algorithm>(r->I32());
  config.max_epochs = r->I32();
  config.seed = r->U64();
  config.use_dataset_target = r->U8() != 0;
  config.cost_model = static_cast<CostModelKind>(r->I32());
  config.dynamic_scheduling = r->U8() != 0;
  config.eval_threads = r->I32();
  config.kernel = static_cast<KernelKind>(r->I32());
  config.calibrate = r->U8() != 0;
  config.hardware.num_cpu_threads = r->I32();
  config.hardware.num_gpus = r->I32();
  config.hardware.speed_variability = r->F64();
  config.hardware.cpu.updates_per_sec_k128 = r->F64();
  config.hardware.cpu.warmup_nnz = r->F64();
  config.hardware.cpu.speed_factor = r->F64();
  config.hardware.gpu.parallel_workers = r->I32();
  config.hardware.gpu.worker_point_rate_k128 = r->F64();
  config.hardware.gpu.kernel_launch_overhead = r->F64();
  config.hardware.gpu.device_mem_bw = r->F64();
  config.hardware.gpu.pcie_h2d_peak_gbps = r->F64();
  config.hardware.gpu.pcie_d2h_peak_gbps = r->F64();
  config.hardware.gpu.pcie_latency = r->F64();
  config.hardware.gpu.speed_factor = r->F64();
  config.fault.autosave_every = r->I32();
  const uint64_t path_len = r->U64();
  if (path_len <= (1u << 16)) {
    config.fault.autosave_path.resize(path_len);
    r->Bytes(config.fault.autosave_path.data(), path_len);
  } else {
    r->Fail();  // absurd path length: corrupt file
  }
  config.fault.checkpoint_retry.max_attempts = r->I32();
  config.fault.checkpoint_retry.initial_backoff = r->F64();
  config.fault.checkpoint_retry.multiplier = r->F64();
  config.fault.checkpoint_retry.jitter = r->F64();
  config.fault.checkpoint_retry.max_backoff = r->F64();
  config.fault.lease_deadline_factor = r->F64();
  config.fault.on_device_loss = static_cast<DegradePolicy>(r->I32());
  return config;
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
  w.U64(kCheckpointMagic);
  w.U32(kCheckpointVersion);
  WriteConfig(&w, ckpt.config);
  w.I32(ckpt.dataset.num_rows);
  w.I32(ckpt.dataset.num_cols);
  w.I32(ckpt.dataset.k);
  w.I64(ckpt.dataset.train_nnz);
  w.I64(ckpt.dataset.test_nnz);
  w.U64(ckpt.dataset.train_hash);
  w.U64(ckpt.dataset.test_hash);
  w.I32(ckpt.epochs_run);
  w.U8(ckpt.reached_target ? 1 : 0);
  w.F64(ckpt.sim_clock);
  w.F64(ckpt.wall_seconds);
  w.I64(ckpt.block_tasks);
  w.I64(ckpt.gpu_nnz);
  w.I64(ckpt.total_nnz_processed);
  w.I64(ckpt.duration_count);
  w.F64(ckpt.duration_sum);
  w.F64(ckpt.duration_sumsq);
  for (int i = 0; i < 4; ++i) w.U64(ckpt.scheduler_rng.s[i]);
  w.U8(ckpt.scheduler_rng.has_spare ? 1 : 0);
  w.F64(ckpt.scheduler_rng.spare);
  w.I64(ckpt.stolen_by_gpus);
  w.I64(ckpt.stolen_by_cpus);
  // v5: growth state + WAL high-water mark.
  for (int i = 0; i < 4; ++i) w.U64(ckpt.growth_rng.s[i]);
  w.U8(ckpt.growth_rng.has_spare ? 1 : 0);
  w.F64(ckpt.growth_rng.spare);
  w.F64(ckpt.rating_sum);
  w.I64(ckpt.rating_count);
  w.U64(ckpt.wal_seq);
  w.U64(ckpt.gpu_streams.size());
  for (const GpuStreamState& s : ckpt.gpu_streams) {
    w.F64(s.h2d_free);
    w.F64(s.kernel_free);
    w.F64(s.d2h_free);
  }
  w.U64(ckpt.trace.size());
  for (const TracePoint& p : ckpt.trace) {
    w.I32(p.epoch);
    w.F64(p.time);
    w.F64(p.test_rmse);
    w.F64(p.train_rmse);
  }
  w.U64(ckpt.p.size());
  w.Bytes(ckpt.p.data(), ckpt.p.size() * sizeof(float));
  w.U64(ckpt.q.size());
  w.Bytes(ckpt.q.data(), ckpt.q.size() * sizeof(float));
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

namespace {

/// ReadCheckpoint's body over an open file: header, config, fingerprint,
/// session state and factors, each validated loudly.
Status ReadCheckpointBody(FILE* f, const std::string& path,
                          SessionCheckpoint* out) {
  Reader r(f);
  SessionCheckpoint& ckpt = *out;
  Status error = Status::Ok();
  const uint64_t magic = r.U64();
  const uint32_t version = r.U32();
  if (!r.ok() || magic != kCheckpointMagic) {
    error = Status::InvalidArgument(
        StrFormat("'%s' is not an hsgd checkpoint", path.c_str()));
  } else if (version != kCheckpointVersion) {
    error = Status::InvalidArgument(
        StrFormat("checkpoint '%s' has version %u, expected %u",
                  path.c_str(), version, kCheckpointVersion));
  }
  if (error.ok()) {
    ckpt.config = ReadConfig(&r);
    if (r.ok()) {
      const Status config_ok = ValidateStoredConfig(ckpt.config);
      if (!config_ok.ok()) {
        error = Status::InvalidArgument(
            StrFormat("checkpoint '%s' is corrupt (%s)", path.c_str(),
                      config_ok.message().c_str()));
      }
    }
    ckpt.dataset.num_rows = r.I32();
    ckpt.dataset.num_cols = r.I32();
    ckpt.dataset.k = r.I32();
    ckpt.dataset.train_nnz = r.I64();
    ckpt.dataset.test_nnz = r.I64();
    ckpt.dataset.train_hash = r.U64();
    ckpt.dataset.test_hash = r.U64();
    ckpt.epochs_run = r.I32();
    ckpt.reached_target = r.U8() != 0;
    ckpt.sim_clock = r.F64();
    ckpt.wall_seconds = r.F64();
    ckpt.block_tasks = r.I64();
    ckpt.gpu_nnz = r.I64();
    ckpt.total_nnz_processed = r.I64();
    ckpt.duration_count = r.I64();
    ckpt.duration_sum = r.F64();
    ckpt.duration_sumsq = r.F64();
    for (int i = 0; i < 4; ++i) ckpt.scheduler_rng.s[i] = r.U64();
    ckpt.scheduler_rng.has_spare = r.U8() != 0;
    ckpt.scheduler_rng.spare = r.F64();
    ckpt.stolen_by_gpus = r.I64();
    ckpt.stolen_by_cpus = r.I64();
    // v5 growth state.
    for (int i = 0; i < 4; ++i) ckpt.growth_rng.s[i] = r.U64();
    ckpt.growth_rng.has_spare = r.U8() != 0;
    ckpt.growth_rng.spare = r.F64();
    ckpt.rating_sum = r.F64();
    ckpt.rating_count = r.I64();
    ckpt.wal_seq = r.U64();
    const uint64_t num_gpus = r.U64();
    if (r.ok() && num_gpus <= 4096) {
      ckpt.gpu_streams.resize(num_gpus);
      for (GpuStreamState& s : ckpt.gpu_streams) {
        s.h2d_free = r.F64();
        s.kernel_free = r.F64();
        s.d2h_free = r.F64();
      }
    } else {
      error = Status::InvalidArgument(
          StrFormat("checkpoint '%s' is corrupt (GPU count)", path.c_str()));
    }
  }
  // Every serialized length is implied by fields already read, so a
  // corrupt or bit-flipped length fails here with a Status instead of
  // attempting a multi-GB allocation.
  if (error.ok() &&
      (ckpt.dataset.num_rows <= 0 || ckpt.dataset.num_cols <= 0 ||
       ckpt.dataset.k <= 0 || ckpt.epochs_run < 0 ||
       ckpt.epochs_run > ckpt.config.max_epochs ||
       ckpt.config.max_epochs > (1 << 24))) {
    error = Status::InvalidArgument(StrFormat(
        "checkpoint '%s' is corrupt (header fields)", path.c_str()));
  }
  if (error.ok()) {
    const uint64_t num_points = r.U64();
    if (r.ok() &&
        num_points == static_cast<uint64_t>(ckpt.epochs_run)) {
      ckpt.trace.resize(num_points);
      for (TracePoint& p : ckpt.trace) {
        p.epoch = r.I32();
        p.time = r.F64();
        p.test_rmse = r.F64();
        p.train_rmse = r.F64();
      }
    } else {
      error = Status::InvalidArgument(StrFormat(
          "checkpoint '%s' is corrupt (trace length)", path.c_str()));
    }
  }
  const uint64_t expected_p =
      static_cast<uint64_t>(ckpt.dataset.num_rows) *
      static_cast<uint64_t>(ckpt.dataset.k);
  const uint64_t expected_q =
      static_cast<uint64_t>(ckpt.dataset.num_cols) *
      static_cast<uint64_t>(ckpt.dataset.k);
  for (const auto& [factors, expected] :
       {std::pair<std::vector<float>*, uint64_t>{&ckpt.p, expected_p},
        {&ckpt.q, expected_q}}) {
    if (!error.ok()) break;
    const uint64_t count = r.U64();
    if (r.ok() && count == expected) {
      factors->resize(count);
      r.Bytes(factors->data(), count * sizeof(float));
    } else {
      error = Status::InvalidArgument(StrFormat(
          "checkpoint '%s' is corrupt (factor length)", path.c_str()));
    }
  }
  if (error.ok() && !r.ok()) {
    error = Status::InvalidArgument(
        StrFormat("checkpoint '%s' is truncated", path.c_str()));
  }
  return error;
}

}  // namespace

StatusOr<SessionCheckpoint> ReadCheckpoint(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(
        StrFormat("checkpoint '%s' does not exist", path.c_str()));
  }
  SessionCheckpoint ckpt;
  const Status status = ReadCheckpointBody(f, path, &ckpt);
  std::fclose(f);
  if (!status.ok()) return status;
  return ckpt;
}

}  // namespace hsgd
