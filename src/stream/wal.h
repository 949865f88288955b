// Write-ahead log for streamed ratings: one append-only file.
//
// The online path's durability story: `OnlineTrainer::Ingest` appends the
// raw batch here BEFORE resolving ids or touching the session, so a crash
// at any later point loses nothing — restart replays the log. Checkpoints
// record the WAL high-water mark actually applied to the session
// (core/checkpoint.h v5), and recovery replays records <= mark to rebuild
// the grown dataset/id maps and re-drives records > mark through training.
//
// On-disk format, WAL version 2 (native endianness, like checkpoints — a
// resume-on-the-same-machine facility, not interchange):
//
//   file          <dir>/wal.log
//     header      u64 magic, u32 version (12 bytes)
//     record*     u32 payload_len, u32 crc32(payload), payload
//   payload       u64 seq, u32 count, count x (i64 user, i64 item,
//                 f32 rating)
//
// One record per ingest BATCH, not per rating: recovery must reproduce
// the exact pre-crash Ingest/TrainDirty cadence for bit-identical
// factors, and the batch boundary is part of that cadence. Seqs are
// contiguous from 1 and the log is never pruned (stream.h says why).
// Version-1 logs (`wal-*.log` files) are not read.
//
// Torn-tail rule: a crash mid-append leaves at most the LAST record
// incomplete, so replay reads a bad record as torn only when it could be
// that append — fewer than 20 bytes left (length, CRC, seq and count: an
// empty batch's whole record), a record running past the end of the
// file, or a CRC mismatch on a record ending exactly there. Replay
// truncates a torn record (never acknowledged) and reports the dropped
// bytes; a file shorter than the header is torn to nothing and Open
// rewrites the header. Any other defect is Internal and leaves every
// byte as it was: a bad magic or version; a length over
// kWalMaxPayloadBytes or other than 12 + 20 x count (the count is in the
// payload, so a flipped length byte cannot pass for a torn tail); a CRC
// mismatch with bytes after the record; a first seq other than 1, or a
// seq other than the previous + 1.
//
// Appends fsync every `fsync_every` records (1 = every append, the
// durability default; 0 = leave flushing to the OS); Open fsyncs a new
// log's header and then its directory entry. A failed append poisons the
// handle — the file may hold a torn tail, and the only safe continuation
// is to reopen (which truncates it) — except for failures injected via
// the IO fault hook, which fire BEFORE any byte is written and are
// therefore cleanly retryable.

#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "io/loader.h"
#include "util/status.h"

namespace hsgd::obs {
class MetricsRegistry;  // obs/metrics.h
class Counter;
class Gauge;
}  // namespace hsgd::obs

namespace hsgd::stream {

/// Largest record payload. Replay reads a longer length as corruption,
/// not as a big batch.
inline constexpr uint32_t kWalMaxPayloadBytes = 64u << 20;
/// Most ratings one Append logs: a payload is 12 bytes plus 20 per
/// rating (file comment), so a batch of 3,355,443 or more is refused.
inline constexpr size_t kWalMaxBatchRatings =
    (kWalMaxPayloadBytes - 12) / 20;

struct WalOptions {
  /// Directory holding `wal.log` (created if missing).
  std::string dir;
  /// fsync after every N successful appends (1 = each append; 0 = never).
  int fsync_every = 1;
};

/// One logged ingest batch, as replay returns it.
struct WalRecord {
  uint64_t seq = 0;
  std::vector<io::RawRating> batch;
};

struct WalReplayResult {
  /// Every intact record, seqs 1, 2, ... in order.
  std::vector<WalRecord> records;
  /// Highest intact seq (0 = empty log).
  uint64_t last_seq = 0;
  /// Bytes of torn tail truncated off the end of the log (0 = clean).
  int64_t truncated_bytes = 0;
};

class Wal {
 public:
  /// Open (or create) the log in `options.dir`, replay it (truncating
  /// any torn tail), and position for appending after the highest intact
  /// record. `metrics` (borrowed, may be null) receives the stream.wal.*
  /// instruments.
  static StatusOr<std::unique_ptr<Wal>> Open(
      const WalOptions& options, obs::MetricsRegistry* metrics = nullptr);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Durably log one ingest batch; returns its sequence number. Internal
  /// on IO failure — injected-hook failures are retryable, real short
  /// writes poison the handle (see file comment). A batch over
  /// kWalMaxBatchRatings is InvalidArgument, with nothing written and
  /// the handle still usable. Empty batches are logged too (they still
  /// consume a seq, keeping recovery's cadence replay exact).
  StatusOr<uint64_t> Append(const std::vector<io::RawRating>& batch);

  /// Force an fsync of the log regardless of fsync_every.
  Status Sync();

  /// Highest sequence number appended or recovered (0 = empty).
  uint64_t last_seq() const { return last_seq_; }
  /// True once a real (non-injected) write failure poisoned the handle.
  bool poisoned() const { return poisoned_; }

  /// Read the log in `dir` without opening it for append, under the file
  /// comment's rule: truncates a torn tail (the file IS modified) and
  /// returns every intact record; any other defect is Internal. NotFound
  /// when the directory does not exist; one without `wal.log` holds an
  /// empty log.
  static StatusOr<WalReplayResult> Replay(const std::string& dir);

  /// Chaos hook: when set and returning true, the next Append fails with
  /// Internal BEFORE writing any byte — a clean, retryable injected IO
  /// error (ServeFaultInjector::ConsumeWalFault is the intended source).
  /// Not thread-safe against concurrent Append; install before traffic.
  void SetIoFaultHook(std::function<bool()> hook) {
    io_fault_hook_ = std::move(hook);
  }

 private:
  Wal() = default;

  WalOptions options_;
  FILE* file_ = nullptr;
  std::string file_path_;
  uint64_t last_seq_ = 0;
  int appends_since_sync_ = 0;
  bool poisoned_ = false;
  std::function<bool()> io_fault_hook_;

  obs::Counter* m_appends_ = nullptr;
  obs::Counter* m_append_failures_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_syncs_ = nullptr;
  obs::Gauge* m_last_seq_ = nullptr;
};

/// Test-only failpoint simulating a short write / ENOSPC, byte-counted
/// like checkpoint.h's: subsequent Append calls fail once they have
/// written `bytes` further bytes (part of the record lands on disk — a
/// genuinely torn tail Replay must truncate). Negative clears it.
/// Process-global and not thread-safe; tests only.
void SetWalWriteFailpoint(int64_t bytes);

/// CRC32 (IEEE, reflected) over `bytes` — exposed for tests that
/// hand-corrupt records.
uint32_t WalCrc32(const void* data, size_t bytes);

}  // namespace hsgd::stream
