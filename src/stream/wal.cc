#include "stream/wal.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "util/strings.h"

namespace hsgd::stream {
namespace {

constexpr uint64_t kWalMagic = 0x4853474457414C31ull;  // "HSGDWAL1"
constexpr uint32_t kWalVersion = 1;
constexpr size_t kHeaderBytes = sizeof(uint64_t) + sizeof(uint32_t) +
                                sizeof(uint64_t);
/// u64 seq + u32 count.
constexpr size_t kPayloadFixed = sizeof(uint64_t) + sizeof(uint32_t);
/// i64 user + i64 item + f32 rating.
constexpr size_t kRatingBytes = 2 * sizeof(int64_t) + sizeof(float);
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

std::string SegmentName(uint64_t first_seq) {
  return StrFormat("wal-%016llx.log",
                   static_cast<unsigned long long>(first_seq));
}

/// Parses "wal-<hex16>.log"; false for anything else in the directory.
bool ParseSegmentName(const char* name, uint64_t* first_seq) {
  size_t len = std::strlen(name);
  if (len != 4 + 16 + 4 || std::strncmp(name, "wal-", 4) != 0 ||
      std::strcmp(name + 20, ".log") != 0) {
    return false;
  }
  uint64_t v = 0;
  for (int i = 4; i < 20; ++i) {
    const char c = name[i];
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *first_seq = v;
  return true;
}

struct SegmentFile {
  uint64_t first_seq = 0;
  std::string path;
};

/// Segment files in `dir`, ascending by first_seq. NotFound when the
/// directory itself is missing.
StatusOr<std::vector<SegmentFile>> ListSegments(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return Status::NotFound(
        StrFormat("WAL directory '%s' does not exist", dir.c_str()));
  }
  std::vector<SegmentFile> segments;
  while (dirent* entry = readdir(d)) {
    uint64_t first_seq;
    if (ParseSegmentName(entry->d_name, &first_seq)) {
      segments.push_back({first_seq, dir + "/" + entry->d_name});
    }
  }
  closedir(d);
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.first_seq < b.first_seq;
            });
  return segments;
}

/// Reads one segment, appending intact records to `out`. `expect_seq`
/// (in/out) enforces cross-segment contiguity; 0 means "accept whatever
/// the first record claims" (the log's head may have been GC'd).
/// `is_last` selects torn-tail truncation over hard failure. On a
/// truncation the file is shortened in place and `truncated_bytes` gets
/// the dropped size.
Status ReadSegment(const SegmentFile& segment, bool is_last,
                   uint64_t* expect_seq, std::vector<WalRecord>* out,
                   int64_t* truncated_bytes) {
  FILE* f = std::fopen(segment.path.c_str(), "rb");
  if (f == nullptr) {
    return Status::Internal(
        StrFormat("cannot open WAL segment '%s'", segment.path.c_str()));
  }
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);

  auto truncate_to = [&](long offset, const char* why) -> Status {
    std::fclose(f);
    f = nullptr;
    if (!is_last) {
      return Status::Internal(StrFormat(
          "WAL segment '%s' is corrupt mid-log (%s at offset %ld) — not "
          "a torn tail; refusing to guess",
          segment.path.c_str(), why, offset));
    }
    if (truncate(segment.path.c_str(), offset) != 0) {
      return Status::Internal(StrFormat(
          "cannot truncate torn tail of '%s'", segment.path.c_str()));
    }
    *truncated_bytes += file_size - offset;
    return Status::Ok();
  };

  uint64_t magic = 0;
  uint32_t version = 0;
  uint64_t first_seq = 0;
  if (std::fread(&magic, sizeof(magic), 1, f) != 1 ||
      std::fread(&version, sizeof(version), 1, f) != 1 ||
      std::fread(&first_seq, sizeof(first_seq), 1, f) != 1) {
    // A crash between segment creation and the header landing: the
    // final segment may legally be shorter than a header. Truncate it
    // to nothing (Open will re-roll it).
    return truncate_to(0, "incomplete header");
  }
  if (magic != kWalMagic || version != kWalVersion ||
      first_seq != segment.first_seq) {
    std::fclose(f);
    return Status::Internal(StrFormat(
        "'%s' is not a valid WAL segment (bad header)",
        segment.path.c_str()));
  }

  long offset = static_cast<long>(kHeaderBytes);
  std::vector<unsigned char> payload;
  for (;;) {
    uint32_t len = 0;
    uint32_t crc = 0;
    const size_t got_len = std::fread(&len, 1, sizeof(len), f);
    if (got_len == 0) break;  // clean end of segment
    if (got_len < sizeof(len) ||
        std::fread(&crc, sizeof(crc), 1, f) != 1) {
      return truncate_to(offset, "partial record length");
    }
    if (len < kPayloadFixed || len > kWalMaxPayloadBytes) {
      return truncate_to(offset, "absurd record length");
    }
    payload.resize(len);
    if (std::fread(payload.data(), 1, len, f) != len) {
      return truncate_to(offset, "partial record payload");
    }
    if (WalCrc32(payload.data(), len) != crc) {
      return truncate_to(offset, "CRC mismatch");
    }
    WalRecord record;
    std::memcpy(&record.seq, payload.data(), sizeof(uint64_t));
    uint32_t count = 0;
    std::memcpy(&count, payload.data() + sizeof(uint64_t), sizeof(count));
    if (len != kPayloadFixed + static_cast<size_t>(count) * kRatingBytes) {
      return truncate_to(offset, "count/length mismatch");
    }
    const uint64_t want =
        *expect_seq != 0 ? *expect_seq
                         : (out->empty() ? record.seq : 0);
    if (record.seq != want) {
      // A seq gap is lost acknowledged data, never a torn tail.
      std::fclose(f);
      return Status::Internal(StrFormat(
          "WAL '%s' has a sequence gap (expected %llu, found %llu)",
          segment.path.c_str(), static_cast<unsigned long long>(want),
          static_cast<unsigned long long>(record.seq)));
    }
    record.batch.resize(count);
    const unsigned char* p = payload.data() + kPayloadFixed;
    for (uint32_t i = 0; i < count; ++i) {
      std::memcpy(&record.batch[i].user, p, sizeof(int64_t));
      std::memcpy(&record.batch[i].item, p + 8, sizeof(int64_t));
      std::memcpy(&record.batch[i].rating, p + 16, sizeof(float));
      p += kRatingBytes;
    }
    *expect_seq = record.seq + 1;
    out->push_back(std::move(record));
    offset += static_cast<long>(2 * sizeof(uint32_t) + len);
  }
  std::fclose(f);
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
  auto segments = ListSegments(dir);
  if (!segments.ok()) return segments.status();
  WalReplayResult result;
  result.segments = static_cast<int>(segments->size());
  uint64_t expect_seq = 0;
  for (size_t i = 0; i < segments->size(); ++i) {
    // First-seq claims must chain: segment i+1 starts where i's records
    // end. Checked implicitly via expect_seq inside ReadSegment, except
    // that an all-torn final segment is allowed to contribute nothing.
    HSGD_RETURN_IF_ERROR(ReadSegment(
        (*segments)[i], /*is_last=*/i + 1 == segments->size(), &expect_seq,
        &result.records, &result.truncated_bytes));
  }
  if (!result.records.empty()) result.last_seq = result.records.back().seq;
  return result;
}

StatusOr<std::unique_ptr<Wal>> Wal::Open(const WalOptions& options,
                                         obs::MetricsRegistry* metrics) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("WAL needs a directory");
  }
  if (options.segment_bytes < static_cast<int64_t>(kHeaderBytes) + 64) {
    return Status::InvalidArgument(StrFormat(
        "WAL segment_bytes too small (%lld)",
        static_cast<long long>(options.segment_bytes)));
  }
  if (options.fsync_every < 0) {
    return Status::InvalidArgument("WAL fsync_every must be >= 0");
  }
  if (mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal(StrFormat(
        "cannot create WAL directory '%s'", options.dir.c_str()));
  }
  // The replay pass truncates any torn tail, so the append position is
  // always after a fully intact record (or a fresh segment).
  auto replay = Replay(options.dir);
  if (!replay.ok()) return replay.status();

  std::unique_ptr<Wal> wal(new Wal());
  wal->options_ = options;
  wal->last_seq_ = replay->last_seq;
  wal->segments_ = replay->segments;
  if (metrics != nullptr) {
    wal->m_appends_ = metrics->counter("stream.wal.appends");
    wal->m_append_failures_ =
        metrics->counter("stream.wal.append_failures");
    wal->m_bytes_ = metrics->counter("stream.wal.bytes");
    wal->m_syncs_ = metrics->counter("stream.wal.syncs");
    wal->m_last_seq_ = metrics->gauge("stream.wal.last_seq");
    wal->m_segments_ = metrics->gauge("stream.wal.segments");
    obs::Set(wal->m_last_seq_, static_cast<double>(wal->last_seq_));
    obs::Set(wal->m_segments_, static_cast<double>(wal->segments_));
  }

  // Append into the newest segment if it has room, else roll a new one.
  auto segments = ListSegments(options.dir);
  if (!segments.ok()) return segments.status();
  if (!segments->empty()) {
    const SegmentFile& tail = segments->back();
    FILE* f = std::fopen(tail.path.c_str(), "ab");
    if (f == nullptr) {
      return Status::Internal(
          StrFormat("cannot reopen WAL segment '%s'", tail.path.c_str()));
    }
    std::fseek(f, 0, SEEK_END);
    wal->file_ = f;
    wal->file_path_ = tail.path;
    wal->file_bytes_ = std::ftell(f);
    if (wal->file_bytes_ < static_cast<long>(kHeaderBytes)) {
      // Fully-truncated torn segment: rewrite its header in place.
      std::fclose(f);
      wal->file_ = nullptr;
      std::remove(tail.path.c_str());
      --wal->segments_;
      HSGD_RETURN_IF_ERROR(wal->RollSegment(wal->last_seq_ + 1));
    }
  } else {
    HSGD_RETURN_IF_ERROR(wal->RollSegment(wal->last_seq_ + 1));
  }
  obs::Set(wal->m_segments_, static_cast<double>(wal->segments_));
  return wal;
}

Wal::~Wal() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

Status Wal::RollSegment(uint64_t first_seq) {
  if (file_ != nullptr) {
    // Never abandon buffered bytes of a sealed segment.
    std::fflush(file_);
    fsync(fileno(file_));
    std::fclose(file_);
    file_ = nullptr;
  }
  const std::string path = options_.dir + "/" + SegmentName(first_seq);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(
        StrFormat("cannot create WAL segment '%s'", path.c_str()));
  }
  uint64_t magic = kWalMagic;
  uint32_t version = kWalVersion;
  bool ok = std::fwrite(&magic, sizeof(magic), 1, f) == 1 &&
            std::fwrite(&version, sizeof(version), 1, f) == 1 &&
            std::fwrite(&first_seq, sizeof(first_seq), 1, f) == 1;
  if (!ok) {
    std::fclose(f);
    std::remove(path.c_str());
    return Status::Internal(
        StrFormat("cannot write WAL segment header '%s'", path.c_str()));
  }
  file_ = f;
  file_path_ = path;
  file_bytes_ = static_cast<int64_t>(kHeaderBytes);
  ++segments_;
  obs::Set(m_segments_, static_cast<double>(segments_));
  return Status::Ok();
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
  if (file_bytes_ >= options_.segment_bytes) {
    HSGD_RETURN_IF_ERROR(RollSegment(last_seq_ + 1));
  }

  const uint64_t seq = last_seq_ + 1;
  const uint32_t count = static_cast<uint32_t>(batch.size());
  const uint32_t len = static_cast<uint32_t>(
      kPayloadFixed + static_cast<size_t>(count) * kRatingBytes);
  std::vector<unsigned char> buf;
  buf.resize(2 * sizeof(uint32_t) + len);
  unsigned char* p = buf.data() + 2 * sizeof(uint32_t);
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
  file_bytes_ += static_cast<int64_t>(to_write);
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
  if (file_ == nullptr) return Status::Ok();
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
