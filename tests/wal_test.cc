// WAL durability tests: append/replay round-trips, torn-tail truncation
// under the byte-level write failpoint, loud failure on non-tail
// corruption and seq gaps, a sweep of flips of every byte and of every
// cut length, and the retryable injected IO fault hook. The torn-tail
// cases are the load-bearing ones: a crash mid-append must lose exactly
// the unacknowledged record and nothing else, reopening must continue
// the sequence as if the torn bytes never existed, and no other defect
// may pass for a torn tail.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "io/loader.h"
#include "stream/wal.h"
#include "test_main.h"
#include "util/status.h"

namespace hsgd {
namespace {

namespace fs = std::filesystem;
using stream::Wal;
using stream::WalOptions;
using stream::WalReplayResult;

std::string FreshDir(const std::string& name) {
  std::string dir = "wal_test_" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

std::vector<io::RawRating> MakeBatch(int64_t base, int count) {
  std::vector<io::RawRating> batch;
  batch.reserve(count);
  for (int i = 0; i < count; ++i) {
    io::RawRating r;
    r.user = base + i;
    r.item = 2 * base + i;
    r.rating = 1.0f + 0.25f * static_cast<float>(i);
    batch.push_back(r);
  }
  return batch;
}

std::vector<unsigned char> ReadBytes(const std::string& path) {
  std::vector<unsigned char> bytes;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    bytes.push_back(static_cast<unsigned char>(c));
  }
  std::fclose(f);
  return bytes;
}

void WriteBytes(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

bool SameBatch(const std::vector<io::RawRating>& a,
               const std::vector<io::RawRating>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].user != b[i].user || a[i].item != b[i].item ||
        a[i].rating != b[i].rating) {
      return false;
    }
  }
  return true;
}

void TestAppendReplayRoundtrip() {
  const std::string dir = FreshDir("roundtrip");
  WalOptions options;
  options.dir = dir;
  auto wal = Wal::Open(options);
  EXPECT_TRUE(wal.ok());
  if (!wal.ok()) return;

  std::vector<std::vector<io::RawRating>> batches = {
      MakeBatch(0, 3), MakeBatch(100, 1), {}, MakeBatch(200, 5)};
  for (size_t i = 0; i < batches.size(); ++i) {
    auto seq = (*wal)->Append(batches[i]);
    EXPECT_TRUE(seq.ok());
    if (seq.ok()) EXPECT_EQ(*seq, i + 1);  // contiguous from 1
  }
  EXPECT_EQ((*wal)->last_seq(), 4u);
  EXPECT_FALSE((*wal)->poisoned());
  wal->reset();

  auto replay = Wal::Replay(dir);
  EXPECT_TRUE(replay.ok());
  if (!replay.ok()) return;
  EXPECT_EQ(replay->records.size(), batches.size());
  EXPECT_EQ(replay->last_seq, 4u);
  EXPECT_EQ(replay->truncated_bytes, 0);
  for (size_t i = 0; i < replay->records.size() && i < batches.size(); ++i) {
    EXPECT_EQ(replay->records[i].seq, i + 1);
    EXPECT_TRUE(SameBatch(replay->records[i].batch, batches[i]));
  }

  // Reopen for append: the sequence continues where replay left off.
  auto reopened = Wal::Open(options);
  EXPECT_TRUE(reopened.ok());
  if (!reopened.ok()) return;
  EXPECT_EQ((*reopened)->last_seq(), 4u);
  auto seq = (*reopened)->Append(MakeBatch(300, 2));
  EXPECT_TRUE(seq.ok());
  if (seq.ok()) EXPECT_EQ(*seq, 5u);
}

void TestTornTailTruncatedOnReplayAndReopen() {
  const std::string dir = FreshDir("torn");
  WalOptions options;
  options.dir = dir;
  auto wal = Wal::Open(options);
  EXPECT_TRUE(wal.ok());
  if (!wal.ok()) return;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE((*wal)->Append(MakeBatch(10 * i, 3)).ok());
  }

  // Die a few bytes into the next record: part of it lands on disk.
  stream::SetWalWriteFailpoint(5);
  auto torn = (*wal)->Append(MakeBatch(900, 6));
  stream::SetWalWriteFailpoint(-1);
  EXPECT_FALSE(torn.ok());
  if (!torn.ok()) EXPECT_EQ(torn.status().code(), StatusCode::kInternal);
  EXPECT_TRUE((*wal)->poisoned());
  // A poisoned handle refuses further appends rather than risk
  // interleaving after the torn bytes.
  EXPECT_FALSE((*wal)->Append(MakeBatch(950, 1)).ok());
  wal->reset();

  auto replay = Wal::Replay(dir);
  EXPECT_TRUE(replay.ok());
  if (!replay.ok()) return;
  EXPECT_TRUE(replay->truncated_bytes > 0);
  EXPECT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->last_seq, 3u);

  // Replay truncated the file in place, so a second scan is clean.
  auto again = Wal::Replay(dir);
  EXPECT_TRUE(again.ok());
  if (again.ok()) EXPECT_EQ(again->truncated_bytes, 0);

  // Reopen-for-append also recovers: seq 4 is reassigned to fresh data.
  auto reopened = Wal::Open(options);
  EXPECT_TRUE(reopened.ok());
  if (!reopened.ok()) return;
  EXPECT_EQ((*reopened)->last_seq(), 3u);
  EXPECT_FALSE((*reopened)->poisoned());
  auto seq = (*reopened)->Append(MakeBatch(400, 2));
  EXPECT_TRUE(seq.ok());
  if (seq.ok()) EXPECT_EQ(*seq, 4u);
  reopened->reset();
  auto final_scan = Wal::Replay(dir);
  EXPECT_TRUE(final_scan.ok());
  if (final_scan.ok()) EXPECT_EQ(final_scan->last_seq, 4u);
}

void TestNonTailCorruptionFailsLoudly() {
  const std::string dir = FreshDir("corrupt");
  WalOptions options;
  options.dir = dir;
  auto wal = Wal::Open(options);
  EXPECT_TRUE(wal.ok());
  if (!wal.ok()) return;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE((*wal)->Append(MakeBatch(10 * i, 4)).ok());
  }
  wal->reset();

  // Flip one payload byte of the FIRST record. Nine intact records
  // follow it, so it is not a torn tail: Replay must refuse, and leave
  // the file as it was, rather than drop acknowledged records.
  const std::string path = dir + "/wal.log";
  std::vector<unsigned char> bytes = ReadBytes(path);
  EXPECT_TRUE(bytes.size() > 30);
  if (bytes.size() <= 30) return;
  // 12-byte header, then len+crc; byte 30 sits inside the first payload.
  bytes[30] ^= 0x5a;
  WriteBytes(path, bytes);

  auto replay = Wal::Replay(dir);
  EXPECT_FALSE(replay.ok());
  if (!replay.ok()) {
    EXPECT_EQ(replay.status().code(), StatusCode::kInternal);
  }
  EXPECT_TRUE(ReadBytes(path) == bytes);
}

// Flips of every byte (low bit, high bit, all bits) and every cut of a
// 4-record log (an empty batch among them). A flip before the final
// record can only be corruption: Internal, with the file byte for byte
// as it was. A flip inside the final record may look like its
// interrupted append: Internal with the file unchanged, or exactly the
// first three records. A cut is always a torn tail: the whole records
// before it replay, and truncated_bytes is the rest. A log cut inside
// its header reopens and appends seq 1.
void TestCorruptionSweep() {
  const std::string dir = FreshDir("sweep");
  const std::string path = dir + "/wal.log";
  const std::vector<std::vector<io::RawRating>> batches = {
      MakeBatch(0, 3), {}, MakeBatch(100, 2), MakeBatch(200, 1)};
  {
    WalOptions options;
    options.dir = dir;
    auto wal = Wal::Open(options);
    EXPECT_TRUE(wal.ok());
    if (!wal.ok()) return;
    for (const auto& batch : batches) {
      EXPECT_TRUE((*wal)->Append(batch).ok());
    }
  }
  const std::vector<unsigned char> clean = ReadBytes(path);
  // record_end[r]: bytes of the header plus the first r records.
  std::vector<size_t> record_end = {12};
  for (const auto& batch : batches) {
    record_end.push_back(record_end.back() + 20 + 20 * batch.size());
  }
  EXPECT_EQ(clean.size(), record_end.back());
  EXPECT_EQ(clean.size(), size_t{212});
  if (clean.size() != record_end.back()) return;
  const size_t final_start = record_end[batches.size() - 1];

  // True when `replay` holds exactly the first `n` records.
  auto is_prefix = [&](const WalReplayResult& replay, size_t n) {
    if (replay.records.size() != n || replay.last_seq != n) return false;
    for (size_t r = 0; r < n; ++r) {
      if (replay.records[r].seq != r + 1 ||
          !SameBatch(replay.records[r].batch, batches[r])) {
        return false;
      }
    }
    return true;
  };

  const unsigned char kMasks[] = {0x01, 0x80, 0xff};
  int bad_flips = 0;
  int torn_final_flips = 0;
  for (size_t at = 0; at < clean.size(); ++at) {
    for (unsigned char mask : kMasks) {
      std::vector<unsigned char> flipped = clean;
      flipped[at] ^= mask;
      WriteBytes(path, flipped);
      auto replay = Wal::Replay(dir);
      bool good = false;
      if (!replay.ok()) {
        good = replay.status().code() == StatusCode::kInternal &&
               ReadBytes(path) == flipped;
      } else if (at >= final_start) {
        good = is_prefix(*replay, batches.size() - 1) &&
               replay->truncated_bytes ==
                   static_cast<int64_t>(clean.size() - final_start) &&
               ReadBytes(path) ==
                   std::vector<unsigned char>(clean.begin(),
                                              clean.begin() + final_start);
        torn_final_flips += good ? 1 : 0;
      }
      if (!good && bad_flips++ == 0) {
        std::fprintf(stderr, "  first bad flip: byte %zu ^ 0x%02x (%s)\n",
                     at, mask,
                     replay.ok() ? "replayed"
                                 : replay.status().ToString().c_str());
      }
    }
  }
  EXPECT_EQ(bad_flips, 0);
  // Inside the final record, only its length and count (8 bytes) are
  // read as corruption; a flip anywhere else in it reads as torn.
  EXPECT_EQ(torn_final_flips,
            static_cast<int>(std::size(kMasks) *
                             (clean.size() - final_start - 8)));

  int bad_cuts = 0;
  for (size_t cut = 0; cut <= clean.size(); ++cut) {
    WriteBytes(path, std::vector<unsigned char>(clean.begin(),
                                                clean.begin() + cut));
    size_t whole = 0;
    while (whole < batches.size() && record_end[whole + 1] <= cut) ++whole;
    const size_t kept = cut < record_end[0] ? 0 : record_end[whole];
    auto replay = Wal::Replay(dir);
    const bool good =
        replay.ok() && is_prefix(*replay, whole) &&
        replay->truncated_bytes == static_cast<int64_t>(cut - kept) &&
        ReadBytes(path) == std::vector<unsigned char>(
                               clean.begin(), clean.begin() + kept);
    if (!good && bad_cuts++ == 0) {
      std::fprintf(stderr, "  first bad cut: %zu bytes\n", cut);
    }
  }
  EXPECT_EQ(bad_cuts, 0);

  for (size_t cut = 0; cut < record_end[0]; ++cut) {
    WriteBytes(path, std::vector<unsigned char>(clean.begin(),
                                                clean.begin() + cut));
    WalOptions options;
    options.dir = dir;
    auto wal = Wal::Open(options);
    EXPECT_TRUE(wal.ok());
    if (!wal.ok()) continue;
    EXPECT_EQ((*wal)->last_seq(), 0u);
    auto seq = (*wal)->Append(batches[0]);
    EXPECT_TRUE(seq.ok());
    if (seq.ok()) EXPECT_EQ(*seq, 1u);
    wal->reset();
    auto replay = Wal::Replay(dir);
    EXPECT_TRUE(replay.ok());
    if (replay.ok()) EXPECT_TRUE(is_prefix(*replay, 1));
    EXPECT_TRUE(ReadBytes(path) ==
                std::vector<unsigned char>(clean.begin(),
                                           clean.begin() + record_end[1]));
  }
  fs::remove_all(dir);
}

// Hand-appends a CRC-valid empty-batch record claiming `seq`.
void AppendRawRecord(const std::string& dir, uint64_t seq) {
  FILE* f = std::fopen((dir + "/wal.log").c_str(), "ab");
  EXPECT_TRUE(f != nullptr);
  if (f == nullptr) return;
  unsigned char payload[12];
  uint32_t count = 0;
  std::memcpy(payload, &seq, sizeof(seq));
  std::memcpy(payload + 8, &count, sizeof(count));
  uint32_t len = sizeof(payload);
  uint32_t crc = stream::WalCrc32(payload, sizeof(payload));
  std::fwrite(&len, sizeof(len), 1, f);
  std::fwrite(&crc, sizeof(crc), 1, f);
  std::fwrite(payload, sizeof(payload), 1, f);
  std::fclose(f);
}

void TestSeqGapFailsLoudly() {
  const std::string dir = FreshDir("seqgap");
  WalOptions options;
  options.dir = dir;
  auto wal = Wal::Open(options);
  EXPECT_TRUE(wal.ok());
  if (!wal.ok()) return;
  EXPECT_TRUE((*wal)->Append(MakeBatch(0, 2)).ok());
  EXPECT_TRUE((*wal)->Append(MakeBatch(10, 2)).ok());
  wal->reset();

  // A CRC-valid record whose seq skips ahead cannot be read as a torn
  // tail — it is a logic error and must surface as Internal.
  AppendRawRecord(dir, 7);  // expected: 3
  auto replay = Wal::Replay(dir);
  EXPECT_FALSE(replay.ok());
  if (!replay.ok()) {
    EXPECT_EQ(replay.status().code(), StatusCode::kInternal);
  }

  // The same holds at the head: a log whose first record is not seq 1
  // lost its start.
  const std::string headless = FreshDir("headless");
  options.dir = headless;
  EXPECT_TRUE(Wal::Open(options).ok());  // writes only the header
  AppendRawRecord(headless, 2);
  auto head = Wal::Replay(headless);
  EXPECT_FALSE(head.ok());
  if (!head.ok()) EXPECT_EQ(head.status().code(), StatusCode::kInternal);
}

void TestMissingAndEmptyDir() {
  auto missing = Wal::Replay("wal_test_definitely_missing_dir");
  EXPECT_FALSE(missing.ok());
  if (!missing.ok()) {
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  }

  const std::string dir = FreshDir("empty");
  fs::create_directories(dir);
  auto empty = Wal::Replay(dir);
  EXPECT_TRUE(empty.ok());
  if (empty.ok()) {
    EXPECT_EQ(empty->records.size(), 0u);
    EXPECT_EQ(empty->last_seq, 0u);
  }
}

void TestInjectedFaultHookIsRetryable() {
  const std::string dir = FreshDir("hook");
  WalOptions options;
  options.dir = dir;
  auto wal = Wal::Open(options);
  EXPECT_TRUE(wal.ok());
  if (!wal.ok()) return;

  int remaining_faults = 2;
  (*wal)->SetIoFaultHook([&remaining_faults]() {
    if (remaining_faults > 0) {
      --remaining_faults;
      return true;
    }
    return false;
  });

  // Hook faults fire before any byte is written: the handle stays
  // clean and the same append succeeds once the fault budget drains.
  const std::vector<io::RawRating> batch = MakeBatch(0, 3);
  auto first = (*wal)->Append(batch);
  EXPECT_FALSE(first.ok());
  if (!first.ok()) EXPECT_EQ(first.status().code(), StatusCode::kInternal);
  EXPECT_FALSE((*wal)->poisoned());
  EXPECT_FALSE((*wal)->Append(batch).ok());
  auto third = (*wal)->Append(batch);
  EXPECT_TRUE(third.ok());
  if (third.ok()) EXPECT_EQ(*third, 1u);  // failed attempts consume no seq
  wal->reset();

  auto replay = Wal::Replay(dir);
  EXPECT_TRUE(replay.ok());
  if (replay.ok()) {
    EXPECT_EQ(replay->records.size(), 1u);
    EXPECT_EQ(replay->truncated_bytes, 0);
  }
}

// Replay reads a payload over kWalMaxPayloadBytes as corruption, so
// Append refuses a batch that would need one before writing a byte: the
// log keeps appending and replays every record, and the largest batch
// that fits round-trips intact.
void TestOversizedBatchRefused() {
  const std::string dir = FreshDir("oversized");
  WalOptions options;
  options.dir = dir;
  auto wal = Wal::Open(options);
  EXPECT_TRUE(wal.ok());
  if (!wal.ok()) return;

  std::vector<std::vector<io::RawRating>> logged = {MakeBatch(0, 2)};
  EXPECT_TRUE((*wal)->Append(logged.back()).ok());
  std::vector<io::RawRating> big =
      MakeBatch(1000, static_cast<int>(stream::kWalMaxBatchRatings) + 1);
  EXPECT_EQ(big.size(), size_t{3355443});
  EXPECT_TRUE((*wal)->Append(big).status().code() ==
              StatusCode::kInvalidArgument);
  EXPECT_EQ((*wal)->last_seq(), 1u);
  EXPECT_FALSE((*wal)->poisoned());

  // The largest batch that fits, then one more record after it.
  big.pop_back();
  logged.push_back(std::move(big));
  logged.push_back(MakeBatch(50, 3));
  for (size_t i = 1; i < logged.size(); ++i) {
    auto seq = (*wal)->Append(logged[i]);
    EXPECT_TRUE(seq.ok());
    if (seq.ok()) EXPECT_EQ(*seq, i + 1);
  }
  wal->reset();

  auto replay = Wal::Replay(dir);
  EXPECT_TRUE(replay.ok());
  if (replay.ok()) {
    EXPECT_EQ(replay->truncated_bytes, 0);
    EXPECT_EQ(replay->records.size(), logged.size());
    for (size_t i = 0; i < replay->records.size() && i < logged.size();
         ++i) {
      EXPECT_EQ(replay->records[i].seq, i + 1);
      EXPECT_TRUE(SameBatch(replay->records[i].batch, logged[i]));
    }
  }
  fs::remove_all(dir);
}

void RunAllTests() {
  TestAppendReplayRoundtrip();
  TestTornTailTruncatedOnReplayAndReopen();
  TestNonTailCorruptionFailsLoudly();
  TestSeqGapFailsLoudly();
  TestCorruptionSweep();
  TestMissingAndEmptyDir();
  TestInjectedFaultHookIsRetryable();
  TestOversizedBatchRefused();
}

}  // namespace
}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
