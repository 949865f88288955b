#include "stream/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "util/strings.h"

namespace hsgd::stream {
namespace {

constexpr uint64_t kWalMagic = 0x4853474457414C31ull;  // "HSGDWAL1"
constexpr uint32_t kWalVersion = 2;
constexpr int64_t kHeaderBytes = sizeof(uint64_t) + sizeof(uint32_t);
/// u32 len + u32 crc ahead of each payload.
constexpr size_t kFrameBytes = 2 * sizeof(uint32_t);
/// u64 seq + u32 count.
constexpr size_t kPayloadFixed = sizeof(uint64_t) + sizeof(uint32_t);
/// i64 user + i64 item + f32 rating.
constexpr size_t kRatingBytes = 2 * sizeof(int64_t) + sizeof(float);
/// A record's length, CRC, seq and count: an empty batch's whole record.
constexpr size_t kMinRecordBytes = kFrameBytes + kPayloadFixed;
static_assert(kPayloadFixed == 12 && kRatingBytes == 20,
              "kWalMaxBatchRatings (wal.h) assumes this payload layout");

/// Byte-counted write failpoint (tests): fail after this many further
/// bytes; < 0 disabled.
int64_t g_wal_write_failpoint = -1;

const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

std::string LogPath(const std::string& dir) { return dir + "/wal.log"; }

/// Reads every intact record of the log at `path` into `result` under
/// the torn-tail rule (wal.h): a torn last append is truncated off in
/// place, any other defect is Internal with the file untouched. A
/// missing file is an empty log.
Status ReadLog(const std::string& path, WalReplayResult* result) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::Ok();
    return Status::Internal(
        StrFormat("cannot open WAL '%s'", path.c_str()));
  }
  struct stat st;
  if (fstat(fileno(f), &st) != 0) {
    std::fclose(f);
    return Status::Internal(StrFormat("cannot stat WAL '%s'", path.c_str()));
  }
  const int64_t file_size = st.st_size;

  auto corrupt = [&](int64_t offset, const char* why) {
    std::fclose(f);
    return Status::Internal(StrFormat(
        "WAL '%s' is corrupt at offset %lld (%s) — not a torn tail; "
        "refusing to guess",
        path.c_str(), static_cast<long long>(offset), why));
  };
  auto torn = [&](int64_t offset) {
    std::fclose(f);
    if (truncate(path.c_str(), offset) != 0) {
      return Status::Internal(
          StrFormat("cannot truncate torn tail of '%s'", path.c_str()));
    }
    result->truncated_bytes = file_size - offset;
    return Status::Ok();
  };

  if (file_size < kHeaderBytes) return torn(0);
  uint64_t magic = 0;
  uint32_t version = 0;
  if (std::fread(&magic, sizeof(magic), 1, f) != 1 ||
      std::fread(&version, sizeof(version), 1, f) != 1) {
    return corrupt(0, "unreadable header");
  }
  if (magic != kWalMagic || version != kWalVersion) {
    return corrupt(0, "bad magic or version");
  }

  std::vector<unsigned char> bytes;
  int64_t offset = kHeaderBytes;
  while (offset < file_size) {
    if (file_size - offset < static_cast<int64_t>(kMinRecordBytes)) {
      return torn(offset);
    }
    bytes.resize(kMinRecordBytes);
    if (std::fread(bytes.data(), 1, kMinRecordBytes, f) != kMinRecordBytes) {
      return corrupt(offset, "read error");
    }
    uint32_t len = 0;
    uint32_t crc = 0;
    uint64_t seq = 0;
    uint32_t count = 0;
    std::memcpy(&len, bytes.data(), sizeof(len));
    std::memcpy(&crc, bytes.data() + 4, sizeof(crc));
    std::memcpy(&seq, bytes.data() + kFrameBytes, sizeof(seq));
    std::memcpy(&count, bytes.data() + kFrameBytes + 8, sizeof(count));
    if (len > kWalMaxPayloadBytes ||
        len != kPayloadFixed + static_cast<size_t>(count) * kRatingBytes) {
      return corrupt(offset, "length disagrees with count");
    }
    const int64_t end = offset + static_cast<int64_t>(kFrameBytes + len);
    if (end > file_size) return torn(offset);
    bytes.resize(kFrameBytes + len);
    const size_t rest = len - kPayloadFixed;
    if (std::fread(bytes.data() + kMinRecordBytes, 1, rest, f) != rest) {
      return corrupt(offset, "read error");
    }
    if (WalCrc32(bytes.data() + kFrameBytes, len) != crc) {
      return end == file_size ? torn(offset)
                              : corrupt(offset, "CRC mismatch");
    }
    if (seq != result->last_seq + 1) {
      // A seq that does not follow is lost acknowledged data.
      return corrupt(offset, "sequence does not follow");
    }
    WalRecord record;
    record.seq = seq;
    record.batch.resize(count);
    const unsigned char* p = bytes.data() + kMinRecordBytes;
    for (io::RawRating& rating : record.batch) {
      std::memcpy(&rating.user, p, sizeof(int64_t));
      std::memcpy(&rating.item, p + 8, sizeof(int64_t));
      std::memcpy(&rating.rating, p + 16, sizeof(float));
      p += kRatingBytes;
    }
    result->records.push_back(std::move(record));
    result->last_seq = seq;
    offset = end;
  }
  std::fclose(f);
  return Status::Ok();
}

/// Writes the header of a new (or emptied) log and makes it durable:
/// the file first, then its directory, since fsync(2) does not persist
/// a new file's directory entry.
Status WriteHeader(FILE* f, const std::string& path, const std::string& dir) {
  const uint64_t magic = kWalMagic;
  const uint32_t version = kWalVersion;
  if (std::fwrite(&magic, sizeof(magic), 1, f) != 1 ||
      std::fwrite(&version, sizeof(version), 1, f) != 1 ||
      std::fflush(f) != 0 || fsync(fileno(f)) != 0) {
    return Status::Internal(
        StrFormat("cannot write WAL header '%s'", path.c_str()));
  }
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  const bool synced = fd >= 0 && fsync(fd) == 0;
  if (fd >= 0) close(fd);
  if (!synced) {
    return Status::Internal(
        StrFormat("cannot fsync WAL directory '%s'", dir.c_str()));
  }
  return Status::Ok();
}

}  // namespace

void SetWalWriteFailpoint(int64_t bytes) { g_wal_write_failpoint = bytes; }

uint32_t WalCrc32(const void* data, size_t bytes) {
  const uint32_t* table = Crc32Table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < bytes; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

StatusOr<WalReplayResult> Wal::Replay(const std::string& dir) {
  struct stat st;
  if (stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::NotFound(
        StrFormat("WAL directory '%s' does not exist", dir.c_str()));
  }
  WalReplayResult result;
  HSGD_RETURN_IF_ERROR(ReadLog(LogPath(dir), &result));
  return result;
}

StatusOr<std::unique_ptr<Wal>> Wal::Open(const WalOptions& options,
                                         obs::MetricsRegistry* metrics) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("WAL needs a directory");
  }
  if (options.fsync_every < 0) {
    return Status::InvalidArgument("WAL fsync_every must be >= 0");
  }
  if (mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal(StrFormat(
        "cannot create WAL directory '%s'", options.dir.c_str()));
  }
  // The replay pass truncates any torn tail, so the append position is
  // always after a fully intact record (or the header).
  auto replay = Replay(options.dir);
  if (!replay.ok()) return replay.status();

  std::unique_ptr<Wal> wal(new Wal());
  wal->options_ = options;
  wal->last_seq_ = replay->last_seq;
  wal->file_path_ = LogPath(options.dir);
  wal->file_ = std::fopen(wal->file_path_.c_str(), "ab");
  struct stat st;
  if (wal->file_ == nullptr || fstat(fileno(wal->file_), &st) != 0) {
    return Status::Internal(StrFormat(
        "cannot open WAL '%s' for append", wal->file_path_.c_str()));
  }
  if (st.st_size == 0) {
    HSGD_RETURN_IF_ERROR(
        WriteHeader(wal->file_, wal->file_path_, options.dir));
  }
  if (metrics != nullptr) {
    wal->m_appends_ = metrics->counter("stream.wal.appends");
    wal->m_append_failures_ =
        metrics->counter("stream.wal.append_failures");
    wal->m_bytes_ = metrics->counter("stream.wal.bytes");
    wal->m_syncs_ = metrics->counter("stream.wal.syncs");
    wal->m_last_seq_ = metrics->gauge("stream.wal.last_seq");
    obs::Set(wal->m_last_seq_, static_cast<double>(wal->last_seq_));
  }
  return wal;
}

Wal::~Wal() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

StatusOr<uint64_t> Wal::Append(const std::vector<io::RawRating>& batch) {
  if (batch.size() > kWalMaxBatchRatings) {
    return Status::InvalidArgument(StrFormat(
        "WAL batch of %zu ratings exceeds the %zu-rating record limit",
        batch.size(), kWalMaxBatchRatings));
  }
  if (poisoned_) {
    return Status::FailedPrecondition(
        "WAL poisoned by an earlier write failure; reopen to recover");
  }
  if (io_fault_hook_ && io_fault_hook_()) {
    // Injected fault: fails BEFORE any byte lands, so it is retryable
    // without poisoning — exactly the shape of a transient EIO.
    obs::Increment(m_append_failures_);
    return Status::Internal("injected WAL IO error");
  }

  const uint64_t seq = last_seq_ + 1;
  const uint32_t count = static_cast<uint32_t>(batch.size());
  const uint32_t len = static_cast<uint32_t>(
      kPayloadFixed + static_cast<size_t>(count) * kRatingBytes);
  std::vector<unsigned char> buf;
  buf.resize(kFrameBytes + len);
  unsigned char* p = buf.data() + kFrameBytes;
  std::memcpy(p, &seq, sizeof(seq));
  std::memcpy(p + 8, &count, sizeof(count));
  unsigned char* q = p + kPayloadFixed;
  for (const io::RawRating& rec : batch) {
    std::memcpy(q, &rec.user, sizeof(int64_t));
    std::memcpy(q + 8, &rec.item, sizeof(int64_t));
    std::memcpy(q + 16, &rec.rating, sizeof(float));
    q += kRatingBytes;
  }
  const uint32_t crc = WalCrc32(p, len);
  std::memcpy(buf.data(), &len, sizeof(len));
  std::memcpy(buf.data() + sizeof(len), &crc, sizeof(crc));

  size_t to_write = buf.size();
  if (g_wal_write_failpoint >= 0 &&
      g_wal_write_failpoint < static_cast<int64_t>(to_write)) {
    // Short write at the failpoint: part of the record lands on disk,
    // then the device reports no space. The torn tail is REAL — flushed
    // so replay sees exactly what a crash would leave.
    const size_t partial = static_cast<size_t>(g_wal_write_failpoint);
    if (partial > 0) std::fwrite(buf.data(), 1, partial, file_);
    std::fflush(file_);
    poisoned_ = true;
    obs::Increment(m_append_failures_);
    return Status::Internal(StrFormat(
        "WAL short write on '%s' (failpoint)", file_path_.c_str()));
  }
  if (g_wal_write_failpoint >= 0) {
    g_wal_write_failpoint -= static_cast<int64_t>(to_write);
  }
  if (std::fwrite(buf.data(), 1, to_write, file_) != to_write) {
    std::fflush(file_);
    poisoned_ = true;
    obs::Increment(m_append_failures_);
    return Status::Internal(
        StrFormat("WAL write failed on '%s'", file_path_.c_str()));
  }
  last_seq_ = seq;
  ++appends_since_sync_;
  if (options_.fsync_every > 0 &&
      appends_since_sync_ >= options_.fsync_every) {
    HSGD_RETURN_IF_ERROR(Sync());
  }
  obs::Increment(m_appends_);
  obs::Add(m_bytes_, static_cast<int64_t>(to_write));
  obs::Set(m_last_seq_, static_cast<double>(last_seq_));
  return seq;
}

Status Wal::Sync() {
  if (std::fflush(file_) != 0 || fsync(fileno(file_)) != 0) {
    poisoned_ = true;
    return Status::Internal(
        StrFormat("WAL fsync failed on '%s'", file_path_.c_str()));
  }
  appends_since_sync_ = 0;
  obs::Increment(m_syncs_);
  return Status::Ok();
}

}  // namespace hsgd::stream
