// Checkpoint durability tests: WriteCheckpoint's atomic temp + rename
// contract under injected short writes (SetCheckpointWriteFailpoint).
// Whatever byte the "device" dies at, the previous checkpoint at the
// destination path must stay byte-identical and readable, and no *.tmp
// litter may survive. Also covers the reader and writer agreeing byte for
// byte, and the reader refusing a file of an older version.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/hsgd.h"
#include "test_main.h"

namespace hsgd {
namespace {

namespace fs = std::filesystem;

Dataset SmallDataset(uint64_t seed = 5) {
  SyntheticSpec spec;
  spec.num_rows = 300;
  spec.num_cols = 200;
  spec.train_nnz = 12000;
  spec.test_nnz = 1200;
  spec.params.k = 8;
  spec.params.learning_rate = 0.01f;
  spec.noise_stddev = 0.3;
  auto ds = GenerateSynthetic(spec, seed);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TrainConfig SmallConfig() {
  TrainConfig cfg;
  cfg.algorithm = Algorithm::kHsgd;
  cfg.hardware.num_cpu_threads = 4;
  cfg.hardware.num_gpus = 1;
  cfg.max_epochs = 4;
  cfg.use_dataset_target = false;
  cfg.eval_threads = 2;
  return cfg;
}

std::string ReadFileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_TRUE(f != nullptr);
  if (f == nullptr) return {};
  std::string bytes;
  char buf[1 << 14];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

// A short write at any offset must surface as a failed Status while the
// previous checkpoint stays byte-identical, readable, and tmp-free.
void TestFailpointPreservesPreviousCheckpoint() {
  Dataset ds = SmallDataset();
  auto session = Session::Create(ds, SmallConfig());
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  EXPECT_TRUE((*session)->RunEpoch().ok());

  const std::string path = "checkpoint_test_durable.ckpt";
  const std::string tmp = path + ".tmp";
  EXPECT_TRUE((*session)->SaveCheckpoint(path).ok());
  const std::string baseline = ReadFileBytes(path);
  EXPECT_TRUE(baseline.size() > 8000u);  // failpoints below must hit mid-file

  // Advance the session so a successful overwrite WOULD change the file.
  EXPECT_TRUE((*session)->RunEpoch().ok());

  for (int64_t failpoint : {0, 1, 9, 1000, 8000}) {
    SetCheckpointWriteFailpoint(failpoint);
    const Status overwrite = (*session)->SaveCheckpoint(path);
    SetCheckpointWriteFailpoint(-1);
    EXPECT_FALSE(overwrite.ok());
    if (overwrite.ok()) continue;
    EXPECT_TRUE(overwrite.code() == StatusCode::kInternal);
    // Durability: previous bytes intact, still readable, no tmp litter.
    EXPECT_TRUE(ReadFileBytes(path) == baseline);
    EXPECT_FALSE(fs::exists(tmp));
    auto back = ReadCheckpoint(path);
    EXPECT_TRUE(back.ok());
    if (back.ok()) EXPECT_EQ(back->epochs_run, 1);
    EXPECT_TRUE(Session::Restore(path, ds).ok());
  }

  // Failpoint cleared: the overwrite lands and the file actually moves.
  EXPECT_TRUE((*session)->SaveCheckpoint(path).ok());
  EXPECT_TRUE(ReadFileBytes(path) != baseline);
  EXPECT_FALSE(fs::exists(tmp));
  auto after = ReadCheckpoint(path);
  EXPECT_TRUE(after.ok());
  if (after.ok()) EXPECT_EQ(after->epochs_run, 2);
  auto resumed = Session::Restore(path, ds);
  EXPECT_TRUE(resumed.ok());
  if (resumed.ok()) EXPECT_EQ((*resumed)->epochs_run(), 2);

  std::remove(path.c_str());
}

// Failing the very first write to a fresh path must leave NO file behind
// (neither the destination nor the temp).
void TestFailpointOnFreshPathLeavesNothing() {
  Dataset ds = SmallDataset();
  auto session = Session::Create(ds, SmallConfig());
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  EXPECT_TRUE((*session)->RunEpoch().ok());

  const std::string path = "checkpoint_test_fresh.ckpt";
  std::remove(path.c_str());
  SetCheckpointWriteFailpoint(0);
  EXPECT_FALSE((*session)->SaveCheckpoint(path).ok());
  SetCheckpointWriteFailpoint(-1);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// One field list drives both ReadCheckpoint and WriteCheckpoint, so a
// checkpoint read and written back is the same file byte for byte. The
// HSGD* session stores GPU stream state and two trace points; the
// CPU-only one stores no GPU streams.
void TestReadWriteRoundTripIsByteExact() {
  Dataset ds = SmallDataset();
  TrainConfig star = SmallConfig();
  star.algorithm = Algorithm::kHsgdStar;
  TrainConfig cpu = SmallConfig();
  cpu.algorithm = Algorithm::kCpuOnly;
  cpu.hardware.num_gpus = 0;
  const std::string path = "checkpoint_test_roundtrip.ckpt";
  const std::string copy = "checkpoint_test_roundtrip_copy.ckpt";
  for (const TrainConfig& cfg : {star, cpu}) {
    auto session = Session::Create(ds, cfg);
    EXPECT_TRUE(session.ok());
    if (!session.ok()) return;
    EXPECT_TRUE((*session)->RunEpoch().ok());
    EXPECT_TRUE((*session)->RunEpoch().ok());
    EXPECT_TRUE((*session)->SaveCheckpoint(path).ok());
    auto ckpt = ReadCheckpoint(path);
    EXPECT_TRUE(ckpt.ok());
    if (!ckpt.ok()) return;
    EXPECT_EQ(ckpt->gpu_streams.size(),
              static_cast<size_t>(cfg.hardware.num_gpus));
    EXPECT_EQ(ckpt->trace.size(), 2u);
    EXPECT_TRUE(WriteCheckpoint(copy, *ckpt).ok());
    EXPECT_TRUE(ReadFileBytes(copy) == ReadFileBytes(path));
  }

  // A v8 file is refused by its version word.
  std::string bytes = ReadFileBytes(path);
  const uint32_t v8 = 8;
  std::memcpy(&bytes[sizeof(kCheckpointMagic)], &v8, sizeof(v8));
  FILE* out = std::fopen(copy.c_str(), "wb");
  EXPECT_TRUE(out != nullptr);
  if (out != nullptr) {
    std::fwrite(bytes.data(), 1, bytes.size(), out);
    std::fclose(out);
  }
  auto old = ReadCheckpoint(copy);
  EXPECT_FALSE(old.ok());
  if (!old.ok()) {
    EXPECT_TRUE(old.status().code() == StatusCode::kInvalidArgument);
    const std::string want =
        "has version 8, expected " + std::to_string(kCheckpointVersion);
    EXPECT_TRUE(old.status().message().find(want) != std::string::npos);
  }
  std::remove(copy.c_str());
  std::remove(path.c_str());
}

}  // namespace

void RunAllTests() {
  TestFailpointPreservesPreviousCheckpoint();
  TestFailpointOnFreshPathLeavesNothing();
  TestReadWriteRoundTripIsByteExact();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
