// Checkpoint durability tests: WriteCheckpoint's atomic temp + rename
// contract under injected short writes (SetCheckpointWriteFailpoint).
// Whatever byte the "device" dies at, the previous checkpoint at the
// destination path must stay byte-identical and readable, and no *.tmp
// litter may survive. Also covers the reader and writer agreeing byte for
// byte, the reader refusing a file of an older version, the factor
// section's layout (unpadded rows, straight from and back into the
// strided model), a save long enough to start early writebacks, and the
// dataset fingerprint's content hash.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
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

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  FILE* out = std::fopen(path.c_str(), "wb");
  EXPECT_TRUE(out != nullptr);
  if (out == nullptr) return;
  std::fwrite(bytes.data(), 1, bytes.size(), out);
  std::fclose(out);
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
    // The factors travel in a Model of the stored shape.
    auto file = CheckpointReader::Open(path);
    EXPECT_TRUE(file.ok());
    if (!file.ok()) return;
    const DatasetFingerprint& shape = file->state().dataset;
    Model model(shape.num_rows, shape.num_cols, shape.k);
    EXPECT_TRUE(file->ReadFactors(&model).ok());
    EXPECT_TRUE(WriteCheckpoint(copy, file->state(), model).ok());
    EXPECT_TRUE(ReadFileBytes(copy) == ReadFileBytes(path));
  }

  // A v9 file is refused by its version word.
  std::string bytes = ReadFileBytes(path);
  const uint32_t v9 = 9;
  std::memcpy(&bytes[sizeof(kCheckpointMagic)], &v9, sizeof(v9));
  WriteFileBytes(copy, bytes);
  auto old = ReadCheckpoint(copy);
  EXPECT_FALSE(old.ok());
  if (!old.ok()) {
    EXPECT_TRUE(old.status().code() == StatusCode::kInvalidArgument);
    const std::string want =
        "has version 9, expected " + std::to_string(kCheckpointVersion);
    EXPECT_TRUE(old.status().message().find(want) != std::string::npos);
  }
  std::remove(copy.c_str());
  std::remove(path.c_str());
}

void ExpectPaddingZero(const Model& model) {
  for (int32_t u = 0; u < model.num_rows(); ++u) {
    for (int i = model.k(); i < model.stride(); ++i) {
      EXPECT_TRUE(model.Row(u)[i] == 0.0f);
    }
  }
  for (int32_t v = 0; v < model.num_cols(); ++v) {
    for (int i = model.k(); i < model.stride(); ++i) {
      EXPECT_TRUE(model.Col(v)[i] == 0.0f);
    }
  }
}

// The file ends with the factor section: P's count and rows, then Q's,
// each row its first k floats without the padding. So the section equals
// the dense copies byte for byte, at a rank with padding (k = 20, stride
// 32) and at one whose padding is a whole half line (k = 8, stride 16).
// Reading it back fills the rows and zeroes every padding lane, even in a
// model whose padding held garbage; a file cut inside either matrix's
// rows is refused by the state read and by Restore, and a short write
// inside Q's rows leaves the previous file as it was.
void TestFactorSectionLayout() {
  const std::string path = "checkpoint_test_layout.ckpt";
  const std::string cut = "checkpoint_test_layout_cut.ckpt";
  for (int k : {20, 8}) {
    Dataset ds = SmallDataset();
    ds.params.k = k;
    auto session = Session::Create(ds, SmallConfig());
    EXPECT_TRUE(session.ok());
    if (!session.ok()) return;
    const Model& model = (*session)->model();
    EXPECT_EQ(model.stride(), k == 20 ? 32 : 16);
    EXPECT_TRUE((*session)->RunEpoch().ok());
    EXPECT_TRUE((*session)->SaveCheckpoint(path).ok());

    const std::string bytes = ReadFileBytes(path);
    const std::vector<float> p = model.DenseP();
    const std::vector<float> q = model.DenseQ();
    const size_t p_bytes = p.size() * sizeof(float);
    const size_t q_bytes = q.size() * sizeof(float);
    EXPECT_TRUE(bytes.size() > p_bytes + q_bytes + 2 * sizeof(uint64_t));
    const size_t q_at = bytes.size() - q_bytes;
    const size_t p_at = q_at - sizeof(uint64_t) - p_bytes;
    uint64_t p_count = 0;
    uint64_t q_count = 0;
    std::memcpy(&p_count, &bytes[p_at - sizeof(uint64_t)], sizeof(p_count));
    std::memcpy(&q_count, &bytes[q_at - sizeof(uint64_t)], sizeof(q_count));
    EXPECT_EQ(p_count, p.size());
    EXPECT_EQ(q_count, q.size());
    EXPECT_EQ(std::memcmp(&bytes[p_at], p.data(), p_bytes), 0);
    EXPECT_EQ(std::memcmp(&bytes[q_at], q.data(), q_bytes), 0);

    auto restored = Session::Restore(path, ds);
    EXPECT_TRUE(restored.ok());
    if (restored.ok()) {
      EXPECT_TRUE((*restored)->model().DenseP() == p);
      EXPECT_TRUE((*restored)->model().DenseQ() == q);
      ExpectPaddingZero((*restored)->model());
    }
    auto file = CheckpointReader::Open(path);
    EXPECT_TRUE(file.ok());
    if (file.ok()) {
      Model dirty(model.num_rows(), model.num_cols(), k);
      std::fill(dirty.p_data(), dirty.p_data() + dirty.p_size(), 7.0f);
      std::fill(dirty.q_data(), dirty.q_data() + dirty.q_size(), 7.0f);
      EXPECT_TRUE(file->ReadFactors(&dirty).ok());
      EXPECT_TRUE(dirty.DenseP() == p);
      EXPECT_TRUE(dirty.DenseQ() == q);
      ExpectPaddingZero(dirty);
      // Another shape is refused before a byte is read.
      Model other(model.num_rows() + 1, model.num_cols(), k);
      EXPECT_TRUE(file->ReadFactors(&other).code() ==
                  StatusCode::kInvalidArgument);
    }

    for (size_t length : {p_at + p_bytes / 2, q_at + q_bytes / 2}) {
      WriteFileBytes(cut, bytes.substr(0, length));
      auto state = ReadCheckpoint(cut);
      EXPECT_TRUE(state.status().code() == StatusCode::kInvalidArgument);
      auto resumed = Session::Restore(cut, ds);
      EXPECT_TRUE(resumed.status().code() == StatusCode::kInvalidArgument);
    }

    EXPECT_TRUE((*session)->RunEpoch().ok());
    SetCheckpointWriteFailpoint(static_cast<int64_t>(q_at + q_bytes / 2));
    const Status short_write = (*session)->SaveCheckpoint(path);
    SetCheckpointWriteFailpoint(-1);
    EXPECT_TRUE(short_write.code() == StatusCode::kInternal);
    EXPECT_TRUE(ReadFileBytes(path) == bytes);
    EXPECT_FALSE(fs::exists(path + ".tmp"));
  }
  std::remove(cut.c_str());
  std::remove(path.c_str());
}

// A save spanning more than three 4 MB writeback strides (the writer
// hands each stride to the disk early) restores bit for bit, and a short
// write past the first stride, after a writeback has started, still
// fails the save and leaves the previous file with no temp file beside.
void TestMultiStrideSaveRestoresBitIdentically() {
  SyntheticSpec spec;
  spec.num_rows = 20000;
  spec.num_cols = 8000;
  spec.train_nnz = 40000;
  spec.test_nnz = 2000;
  spec.params.k = 128;
  spec.params.learning_rate = 0.01f;
  auto ds = GenerateSynthetic(spec, 7);
  EXPECT_TRUE(ds.ok());
  if (!ds.ok()) return;
  auto session = Session::Create(*ds, SmallConfig());
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  EXPECT_TRUE((*session)->RunEpoch().ok());

  const std::string path = "checkpoint_test_strides.ckpt";
  const std::string copy = "checkpoint_test_strides_copy.ckpt";
  const int64_t stride = int64_t{4} << 20;
  EXPECT_TRUE((*session)->SaveCheckpoint(path).ok());
  const std::string bytes = ReadFileBytes(path);
  EXPECT_TRUE(static_cast<int64_t>(bytes.size()) > 3 * stride);
  auto restored = Session::Restore(path, *ds);
  EXPECT_TRUE(restored.ok());
  if (restored.ok()) {
    EXPECT_TRUE((*restored)->model().DenseP() ==
                (*session)->model().DenseP());
    EXPECT_TRUE((*restored)->model().DenseQ() ==
                (*session)->model().DenseQ());
    EXPECT_TRUE((*restored)->SaveCheckpoint(copy).ok());
    EXPECT_TRUE(ReadFileBytes(copy) == bytes);
  }

  EXPECT_TRUE((*session)->RunEpoch().ok());
  for (int64_t failpoint : {stride + 4096, 3 * stride + 1}) {
    SetCheckpointWriteFailpoint(failpoint);
    const Status short_write = (*session)->SaveCheckpoint(path);
    SetCheckpointWriteFailpoint(-1);
    EXPECT_TRUE(short_write.code() == StatusCode::kInternal);
    EXPECT_TRUE(ReadFileBytes(path) == bytes);
    EXPECT_FALSE(fs::exists(path + ".tmp"));
  }
  std::remove(copy.c_str());
  std::remove(path.c_str());
}

// The content hash reads every rating in order: one changed u, v or r
// (of the first, a middle and the last rating), two swapped ratings or a
// dropped last rating each change train_hash; equal datasets hash equal.
void TestFingerprintHashCoversEachRating() {
  const Dataset ds = SmallDataset();
  const DatasetFingerprint base = FingerprintDataset(ds);
  EXPECT_TRUE(FingerprintDataset(SmallDataset()) == base);
  auto expect_changed = [&](const char* what, auto mutate) {
    Dataset other = ds;
    mutate(&other.train);
    if (FingerprintDataset(other).train_hash == base.train_hash) {
      std::fprintf(stderr, "  (train_hash missed: %s)\n", what);
      EXPECT_TRUE(false);
    }
  };
  const size_t n = ds.train.size();
  for (size_t i : {size_t{0}, n / 2, n - 1}) {
    expect_changed("u", [i](Ratings* r) { (*r)[i].u ^= 1; });
    expect_changed("v", [i](Ratings* r) { (*r)[i].v ^= 1; });
    expect_changed("r", [i](Ratings* r) {
      (*r)[i].r = std::nextafter((*r)[i].r,
                                 std::numeric_limits<float>::infinity());
    });
  }
  EXPECT_TRUE(ds.train[1].u != ds.train[n / 2].u);
  expect_changed("swap", [n](Ratings* r) { std::swap((*r)[1], (*r)[n / 2]); });
  expect_changed("drop last", [](Ratings* r) { r->pop_back(); });
}

}  // namespace

void RunAllTests() {
  TestFailpointPreservesPreviousCheckpoint();
  TestFailpointOnFreshPathLeavesNothing();
  TestReadWriteRoundTripIsByteExact();
  TestFactorSectionLayout();
  TestMultiStrideSaveRestoresBitIdentically();
  TestFingerprintHashCoversEachRating();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
