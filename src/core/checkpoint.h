// Binary checkpoint format for hsgd::Session (versioned, self-describing
// enough to fail loudly on mismatch).
//
// Layout: a magic + version header, the full TrainConfig, a fingerprint
// of the training data (dimensions, rank, nnz counts and a content hash —
// the ratings themselves are NOT stored; Session::Restore takes the
// dataset from the caller and verifies it against the fingerprint), then
// the evolving session state: epoch counter, virtual clock, stat
// accumulators, the scheduler's RNG stream and steal tallies, per-GPU
// pipeline stream state and the trace so far. The factor rows come last:
// P's then Q's, each a u64 count (rows * k) and then every row's first k
// floats. They go between the strided Model and the file with no staging
// copy, and the SIMD padding lanes are never stored, so the file does not
// depend on the kernel build.
//
// Everything else a session holds (grid cuts, blocked matrix, cost-model
// alpha, device speed draws) is deterministic from (dataset, config) and
// is rebuilt on restore rather than stored, which keeps checkpoints at
// essentially the size of the factors.
//
// Values are written in native endianness — checkpoints are a
// resume-on-the-same-machine facility, not an interchange format.

#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/model.h"
#include "core/session.h"
#include "sim/gpu_device.h"
#include "util/rng.h"
#include "util/status.h"

namespace hsgd {

inline constexpr uint64_t kCheckpointMagic = 0x485347444348504Bull;  // "HSGDCHPK"
// v2: fingerprint additionally hashes the test split (real loaded
// datasets carry a held-out split whose identity matters for resume) and
// restore validates config floats for finiteness/positivity.
// v3: the config records the RESOLVED compute-kernel variant (and the
// calibrate flag, always false by save time since Create substitutes the
// measured rate into cpu.updates_per_sec_k128); the factor matrices are
// stored dense (stride-free), independent of the SIMD padding. Restore
// re-resolves the recorded kernel and fails loudly on a machine or build
// that cannot run it — resuming under a different kernel would silently
// change the numerics.
// v4: the config additionally carries the fault policy (the cadence and
// path of the session's own periodic save, checkpoint retry, lease
// deadline factor, degradation policy), so a restored run keeps saving
// the way the original did.
// Runtime fault state (dead devices, attached FaultPlan) is NOT stored —
// like observability sinks, plans are re-attached by the caller after
// Restore.
// v5: the online-append growth state (cold-row init RNG, exact running
// rating moments) and the WAL high-water mark. A grown session restored
// WITHOUT these would re-seed the growth stream and recompute the rating
// mean from dataset stats — both FP-divergent from the incremental
// accumulation, silently breaking bit-identical append replay after a
// crash. The wal_seq mark is what stream recovery uses to split the WAL
// into already-applied records (rebuild the dataset only) and unapplied
// ones (re-drive through training).
// v6: v5 minus the fault policy's checkpoint retry, lease deadline factor
// and degradation policy (48 bytes), which became constants: the config
// keeps only the periodic-save cadence and path.
// v7: v6 minus the periodic-save cadence and path (an i32 and a
// u64-counted string): the session no longer saves on its own — callers
// call Session::SaveCheckpoint from their epoch loops — so the config
// holds no fault policy at all.
// v8: v7 minus the calibrate flag and the nine device rates no caller
// set (73 bytes): the config stores only the fleet a program chooses
// (CPU threads, GPUs, GPU width, CPU rate, speed variability), and the
// rest of each device is sim/device_spec.h's testbed. Callers that
// calibrate store the measured rate as the CPU rate.
// v9: v8 plus the dataset's SGD hyper-parameters (learning rate, both
// regularizers) and early-stop target in the fingerprint (20 bytes),
// minus the unread wall_seconds stat (8 bytes). Restore refuses a
// dataset whose hyper-parameters or target differ, which v8 accepted
// and then trained to different factors.
// v10: v9 with a word-wise content hash in place of byte-wise FNV-1a
// (each rating's (u, v) pair as one u64 and r's bits as one u32, mixed
// in order); only the values of the two hash words change. The factor
// section and the file size are v9's.
inline constexpr uint32_t kCheckpointVersion = 10;

/// Cheap identity of the data a session was trained on. Restore refuses
/// a dataset whose fingerprint differs — resuming on different ratings
/// or hyper-parameters would silently produce different factors.
struct DatasetFingerprint {
  int32_t num_rows = 0;
  int32_t num_cols = 0;
  int32_t k = 0;
  int64_t train_nnz = 0;
  int64_t test_nnz = 0;
  /// A word-wise hash of each split's ratings in order: per rating, the
  /// (u, v) pair as one u64 and then r's bits as one u32, each folded in
  /// by a multiply and a shift. Every step is a bijection of the running
  /// hash for a fixed input and of the input for a fixed hash, so changing
  /// any one u, v or r always changes the hash. The test split is covered
  /// too: datasets ingested by io/ carry a held-out split, and
  /// resuming against different test ratings would silently skew the
  /// RMSE trace and any early-stop decision.
  uint64_t train_hash = 0;
  uint64_t test_hash = 0;
  /// The rest of the dataset's SgdParams and its early-stop target,
  /// compared bit for bit.
  float learning_rate = 0.0f;
  float lambda_p = 0.0f;
  float lambda_q = 0.0f;
  double target_rmse = 0.0;

  bool operator==(const DatasetFingerprint& other) const;
  bool operator!=(const DatasetFingerprint& other) const {
    return !(*this == other);
  }
};

DatasetFingerprint FingerprintDataset(const Dataset& dataset);

/// Resumable state of a Session as stored on disk, all but the factor
/// rows, which live only in a Model. Filled by Session::SaveCheckpoint and
/// consumed by Session::Restore; exposed here so tests and tools can
/// inspect checkpoints without a session.
struct SessionCheckpoint {
  TrainConfig config;
  DatasetFingerprint dataset;

  int32_t epochs_run = 0;
  bool reached_target = false;
  double sim_clock = 0.0;

  int64_t block_tasks = 0;
  int64_t gpu_nnz = 0;
  int64_t total_nnz_processed = 0;
  int64_t duration_count = 0;
  double duration_sum = 0.0;
  double duration_sumsq = 0.0;

  RngState scheduler_rng;
  int64_t stolen_by_gpus = 0;
  int64_t stolen_by_cpus = 0;

  // v5: online-append growth state + stream durability mark.
  RngState growth_rng;
  double rating_sum = 0.0;
  int64_t rating_count = 0;
  /// Highest WAL sequence number applied to the session when this
  /// checkpoint was taken (0 = no WAL / nothing streamed). See
  /// stream/wal.h; written via Session::SaveCheckpoint's wal_seq
  /// overload, consumed by stream::OnlineTrainer::Recover.
  uint64_t wal_seq = 0;

  std::vector<GpuStreamState> gpu_streams;
  std::vector<TracePoint> trace;
};

/// Write `checkpoint` and `model`'s factor rows (each row's first k
/// floats, straight from the strided storage) to `path` atomically and
/// durably: a temp file is written, flushed and fsynced, renamed over
/// `path`, and then `path`'s directory is fsynced. Readers never observe
/// a torn file, a crash mid-write leaves any previous checkpoint at
/// `path` intact, and a save that returned OK survives a power loss. A
/// failed write or fsync returns Internal and removes the temp file. On
/// success `bytes_written` (when non-null) receives the file's size —
/// observability accounting for the session's ckpt.bytes counter; 0 on
/// failure.
Status WriteCheckpoint(const std::string& path,
                       const SessionCheckpoint& checkpoint, const Model& model,
                       int64_t* bytes_written = nullptr);

/// A checkpoint file open for reading. Open reads and validates the state;
/// ReadFactors then reads the factor rows into a Model from the same open
/// file, so a save that renames a new file over the path in between cannot
/// pair one file's state with another file's factors.
class CheckpointReader {
 public:
  /// Opens `path` and reads everything but the factor rows, which it
  /// skips. NotFound for a missing file; InvalidArgument for a corrupt or
  /// version-mismatched one: a stored config that fails validation, an
  /// epoch counter outside the budget or unequal to the trace's length,
  /// rating moments no session holds (a count <= 0 or a non-finite sum),
  /// or a file too short to hold the factor rows its header implies —
  /// judged from the file's size, not by reading the rows. These are the
  /// state's only checks; Restore adds what needs the rebuilt session
  /// (the dataset fingerprint and the GPU count).
  static StatusOr<CheckpointReader> Open(const std::string& path);

  const SessionCheckpoint& state() const { return state_; }

  /// Reads the factor rows into `model`, whose shape must be the state's
  /// (num_rows x num_cols at rank k), and zeroes every padding lane.
  /// InvalidArgument on another shape, or on a file that no longer reads
  /// (some rows may then already be overwritten).
  Status ReadFactors(Model* model);

 private:
  struct FileCloser {
    void operator()(FILE* f) const { std::fclose(f); }
  };

  std::string path_;
  int64_t size_ = 0;
  /// The stream's buffer; declared first, so it outlives the stream.
  std::unique_ptr<char[]> buffer_;
  std::unique_ptr<FILE, FileCloser> file_;
  SessionCheckpoint state_;
};

/// The state of the checkpoint at `path`, with CheckpointReader::Open's
/// checks; the factor rows are skipped, not read.
StatusOr<SessionCheckpoint> ReadCheckpoint(const std::string& path);

/// Test-only failpoint simulating a short write / ENOSPC: subsequent
/// WriteCheckpoint calls fail once they have written `bytes` bytes of
/// the temp file (0 fails immediately). The write error surfaces as an
/// Internal Status and the temp file is removed — the durability
/// contract (a previous checkpoint at `path` stays intact and readable)
/// is what tests assert under this failpoint. Negative clears it.
/// Process-global and not thread-safe; tests only.
void SetCheckpointWriteFailpoint(int64_t bytes);

}  // namespace hsgd
