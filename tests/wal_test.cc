// WAL durability tests: append/replay round-trips, segment rolling,
// torn-tail truncation under the byte-level write failpoint, loud
// failure on non-tail corruption and seq gaps, and the retryable
// injected IO fault hook. The torn-tail cases are the load-bearing ones:
// a crash mid-append must lose exactly the unacknowledged record and
// nothing else, and reopening must continue the sequence as if the torn
// bytes never existed.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
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
using stream::WalRecord;
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
  EXPECT_EQ(replay->segments, 1);
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

void TestSegmentRoll() {
  const std::string dir = FreshDir("segments");
  WalOptions options;
  options.dir = dir;
  options.segment_bytes = 128;  // force frequent rolls
  auto wal = Wal::Open(options);
  EXPECT_TRUE(wal.ok());
  if (!wal.ok()) return;

  const int kBatches = 12;
  for (int i = 0; i < kBatches; ++i) {
    EXPECT_TRUE((*wal)->Append(MakeBatch(10 * i, 4)).ok());
  }

  // Records span several segments and replay as one contiguous log.
  auto replay = Wal::Replay(dir);
  EXPECT_TRUE(replay.ok());
  if (!replay.ok()) return;
  EXPECT_TRUE(replay->segments > 1);
  EXPECT_EQ(replay->records.size(), static_cast<size_t>(kBatches));
  EXPECT_EQ(replay->last_seq, static_cast<uint64_t>(kBatches));
  uint64_t expect = 1;
  for (const WalRecord& record : replay->records) {
    EXPECT_EQ(record.seq, expect);
    ++expect;
  }
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
  options.segment_bytes = 128;  // several segments
  auto wal = Wal::Open(options);
  EXPECT_TRUE(wal.ok());
  if (!wal.ok()) return;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE((*wal)->Append(MakeBatch(10 * i, 4)).ok());
  }
  wal->reset();

  // Flip one payload byte in the FIRST segment. That is not a torn
  // tail (it is not the final segment), so Replay must refuse rather
  // than silently drop acknowledged records.
  std::string first_segment;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    if (first_segment.empty() || path < first_segment) first_segment = path;
  }
  EXPECT_TRUE(!first_segment.empty());
  FILE* f = std::fopen(first_segment.c_str(), "rb+");
  EXPECT_TRUE(f != nullptr);
  if (f == nullptr) return;
  // 20-byte header, then len+crc; byte 30 sits inside the first payload.
  std::fseek(f, 30, SEEK_SET);
  int byte = std::fgetc(f);
  std::fseek(f, 30, SEEK_SET);
  std::fputc(byte ^ 0x5a, f);
  std::fclose(f);

  auto replay = Wal::Replay(dir);
  EXPECT_FALSE(replay.ok());
  if (!replay.ok()) {
    EXPECT_EQ(replay.status().code(), StatusCode::kInternal);
  }
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

  // Hand-append a CRC-valid record whose seq skips ahead. Valid CRC
  // means this cannot be read as a torn tail — it is a logic error and
  // must surface as Internal.
  std::string segment;
  for (const auto& entry : fs::directory_iterator(dir)) {
    segment = entry.path().string();
  }
  EXPECT_TRUE(!segment.empty());
  FILE* f = std::fopen(segment.c_str(), "ab");
  EXPECT_TRUE(f != nullptr);
  if (f == nullptr) return;
  unsigned char payload[12];
  uint64_t seq = 7;  // expected: 3
  uint32_t count = 0;
  std::memcpy(payload, &seq, sizeof(seq));
  std::memcpy(payload + 8, &count, sizeof(count));
  uint32_t len = sizeof(payload);
  uint32_t crc = stream::WalCrc32(payload, sizeof(payload));
  std::fwrite(&len, sizeof(len), 1, f);
  std::fwrite(&crc, sizeof(crc), 1, f);
  std::fwrite(payload, sizeof(payload), 1, f);
  std::fclose(f);

  auto replay = Wal::Replay(dir);
  EXPECT_FALSE(replay.ok());
  if (!replay.ok()) {
    EXPECT_EQ(replay.status().code(), StatusCode::kInternal);
  }
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
  TestSegmentRoll();
  TestTornTailTruncatedOnReplayAndReopen();
  TestNonTailCorruptionFailsLoudly();
  TestSeqGapFailsLoudly();
  TestMissingAndEmptyDir();
  TestInjectedFaultHookIsRetryable();
  TestOversizedBatchRefused();
}

}  // namespace
}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
