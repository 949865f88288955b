// Kernel-dispatch suite: every compiled-in SIMD variant must agree with
// the scalar reference — factor updates and error sums within float
// summation tolerance, TopK orderings exactly (and BatchTopK with a
// brute-force scorer bit for bit), and checkpoint resume bit-identically
// under a fixed kernel — and each variant's SGD sweep must equal its own
// one-rating-at-a-time reference bit for bit at every row width, as its
// error entry must equal its own dot per rating. Also covers the
// dispatch / naming API, the zero-padding layout invariant the vector
// kernels rely on, the InitRandom degenerate-mean clamp, and the rate
// calibrator. Runs under ASan/UBSan in CI like every other test binary.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "brute_force_topk.h"
#include "core/hsgd.h"
#include "serve/snapshot.h"
#include "test_main.h"
#include "util/cpu_features.h"

namespace hsgd {
namespace {

std::vector<KernelKind> SupportedKinds() {
  std::vector<KernelKind> kinds = {KernelKind::kScalar};
  for (KernelKind kind : {KernelKind::kAvx2, KernelKind::kAvx512}) {
    if (KernelSupported(kind)) kinds.push_back(kind);
  }
  return kinds;
}

void TestKindNamesAndResolution() {
  EXPECT_EQ(std::string(KernelKindName(KernelKind::kAuto)), "auto");
  EXPECT_EQ(std::string(KernelKindName(KernelKind::kScalar)), "scalar");
  EXPECT_EQ(std::string(KernelKindName(KernelKind::kAvx2)), "avx2");
  EXPECT_EQ(std::string(KernelKindName(KernelKind::kAvx512)), "avx512");
  for (KernelKind kind : {KernelKind::kAuto, KernelKind::kScalar,
                          KernelKind::kAvx2, KernelKind::kAvx512}) {
    auto parsed = KernelKindByName(KernelKindName(kind));
    EXPECT_TRUE(parsed.ok());
    if (parsed.ok()) EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(KernelKindByName("sse9").ok());
  EXPECT_FALSE(KernelKindByName("").ok());

  // auto resolves to something concrete and supported.
  auto resolved = ResolveKernelKind(KernelKind::kAuto);
  EXPECT_TRUE(resolved.ok());
  if (resolved.ok()) {
    EXPECT_TRUE(*resolved != KernelKind::kAuto);
    EXPECT_TRUE(KernelSupported(*resolved));
    EXPECT_EQ(DefaultKernelOps().kind, *resolved);
  }
  // Scalar always resolves; an unsupported concrete kind is an error,
  // not a silent fallback.
  EXPECT_TRUE(ResolveKernelKind(KernelKind::kScalar).ok());
  for (KernelKind kind : {KernelKind::kAvx2, KernelKind::kAvx512}) {
    EXPECT_EQ(ResolveKernelKind(kind).ok(), KernelSupported(kind));
  }
  // PaddedStride rounds up to whole 64-byte lines.
  EXPECT_EQ(PaddedStride(1), 16);
  EXPECT_EQ(PaddedStride(16), 16);
  EXPECT_EQ(PaddedStride(17), 32);
  EXPECT_EQ(PaddedStride(128), 128);
}

Ratings RandomBlock(int64_t n, int32_t rows, int32_t cols, Rng* rng) {
  Ratings block(static_cast<size_t>(n));
  for (Rating& rt : block) {
    rt.u = static_cast<int32_t>(rng->UniformInt(rows));
    rt.v = static_cast<int32_t>(rng->UniformInt(cols));
    rt.r = 1.0f + 4.0f * rng->NextFloat();
  }
  return block;
}

Model RandomModel(int32_t rows, int32_t cols, int k, uint64_t seed) {
  Model model(rows, cols, k);
  Rng rng(seed);
  model.InitRandom(&rng, 3.5);
  return model;
}

/// Largest |a - b| over the logical lanes of two models' factors.
double MaxFactorDelta(const Model& a, const Model& b) {
  double max_delta = 0.0;
  for (int32_t u = 0; u < a.num_rows(); ++u) {
    for (int i = 0; i < a.k(); ++i) {
      max_delta = std::max(
          max_delta, std::fabs(static_cast<double>(a.Row(u)[i]) -
                               b.Row(u)[i]));
    }
  }
  for (int32_t v = 0; v < a.num_cols(); ++v) {
    for (int i = 0; i < a.k(); ++i) {
      max_delta = std::max(
          max_delta, std::fabs(static_cast<double>(a.Col(v)[i]) -
                               b.Col(v)[i]));
    }
  }
  return max_delta;
}

/// The padding lanes past k must be zero in every row — the invariant
/// that lets vector kernels sweep whole padded rows unmasked.
void ExpectPaddingZero(const Model& model) {
  bool all_zero = true;
  for (int32_t u = 0; u < model.num_rows(); ++u) {
    for (int i = model.k(); i < model.stride(); ++i) {
      all_zero = all_zero && model.Row(u)[i] == 0.0f;
    }
  }
  for (int32_t v = 0; v < model.num_cols(); ++v) {
    for (int i = model.k(); i < model.stride(); ++i) {
      all_zero = all_zero && model.Col(v)[i] == 0.0f;
    }
  }
  EXPECT_TRUE(all_zero);
}

// Scalar vs each SIMD variant on random blocks, including ranks that are
// not a multiple of any SIMD width (the padded-lane path).
void TestKernelEquivalence() {
  const int32_t rows = 300, cols = 250;
  for (int k : {8, 16, 100, 128}) {
    Rng block_rng(77);
    const Ratings block = RandomBlock(20000, rows, cols, &block_rng);
    const SgdHyper hyper{0.01f, 0.05f, 0.05f};

    Model reference = RandomModel(rows, cols, k, 11);
    const KernelOps& scalar = GetKernelOps(KernelKind::kScalar);
    const double scalar_sq =
        SgdUpdateBlock(&reference, block, hyper, &scalar);
    ExpectPaddingZero(reference);

    for (KernelKind kind : SupportedKinds()) {
      if (kind == KernelKind::kScalar) continue;
      const KernelOps& ops = GetKernelOps(kind);

      // dot: same operands, tolerance for FMA/summation-order effects.
      Model fresh = RandomModel(rows, cols, k, 11);
      float scalar_dot = scalar.dot(fresh.Row(3), fresh.Col(5), k);
      float simd_dot = ops.dot(fresh.Row(3), fresh.Col(5), k);
      EXPECT_NEAR(simd_dot, scalar_dot, 1e-4 * (1.0 + std::fabs(scalar_dot)));
      // Predict with pinned ops is that variant's dot, bitwise.
      EXPECT_EQ(fresh.Predict(3, 5, &ops), simd_dot);
      EXPECT_EQ(fresh.Predict(3, 5, &scalar), scalar_dot);

      // Fused SGD sweep: same start, factors land within tolerance.
      const double simd_sq = SgdUpdateBlock(&fresh, block, hyper, &ops);
      ExpectPaddingZero(fresh);
      EXPECT_NEAR(simd_sq, scalar_sq, 1e-3 * (1.0 + scalar_sq));
      EXPECT_LT(MaxFactorDelta(reference, fresh), 1e-3);

      // RMSE through each variant's dot agrees on the updated factors.
      const double scalar_err = Rmse(reference, block, nullptr, &scalar);
      const double simd_err = Rmse(reference, block, nullptr, &ops);
      EXPECT_NEAR(simd_err, scalar_err, 1e-3 * (1.0 + scalar_err));

      // Batch scoring is bitwise-consistent with the variant's own dot
      // (the ranking contract), and near the scalar scores.
      std::vector<float> scores(static_cast<size_t>(cols));
      ops.score_block(reference.Row(0), reference.q_data(),
                      reference.stride(), k, 0, cols, scores.data());
      bool batch_matches_dot = true;
      double max_score_delta = 0.0;
      for (int32_t v = 0; v < cols; ++v) {
        batch_matches_dot =
            batch_matches_dot &&
            scores[static_cast<size_t>(v)] ==
                ops.dot(reference.Row(0), reference.Col(v), k);
        max_score_delta = std::max(
            max_score_delta,
            std::fabs(static_cast<double>(scores[static_cast<size_t>(v)]) -
                      scalar.dot(reference.Row(0), reference.Col(v), k)));
      }
      EXPECT_TRUE(batch_matches_dot);
      EXPECT_LT(max_score_delta, 1e-3);
    }
  }
}

/// Every row width the AVX-512 sweep distinguishes: 1 to 9 vectors
/// (Ceil16(k) / 16), ranks that fill their last vector and ranks that do
/// not, and at every even count both a last vector that closes an
/// acc0/acc1 pair (k a multiple of 32) and one that does not.
const int kRowWidths[] = {8,  16, 20,  32,  48,  56,  64, 80,
                          90, 96, 100, 112, 120, 128, 144};

/// The in-order sum of (double)err * err over `block`, each err rounded
/// to float from the variant's own dot: what Rmse sums per run.
double SquaredErrorFold(const KernelOps& ops, const Model& model,
                        const Ratings& block) {
  double sum = 0.0;
  for (const Rating& rt : block) {
    const float err = rt.r - ops.dot(model.Row(rt.u), model.Col(rt.v),
                                     model.k());
    sum += static_cast<double>(err) * err;
  }
  return sum;
}

// At learning rate zero the fused kernel's reported squared error must
// equal the in-order fold of its dot's errors bitwise, at every row
// width, and Rmse over a block of one run must be its root mean.
void TestFrozenSweepMatchesReduction() {
  Rng rng(5);
  const Ratings block = RandomBlock(5000, 120, 90, &rng);
  const double n = static_cast<double>(block.size());
  ThreadPool pool(3);
  for (KernelKind kind : SupportedKinds()) {
    const KernelOps& ops = GetKernelOps(kind);
    for (int k : kRowWidths) {
      Model model = RandomModel(120, 90, k, 9);
      const double folded = SquaredErrorFold(ops, model, block);
      const double frozen = ops.sgd_block(
          model.p_data(), model.q_data(), model.stride(), model.k(),
          block.data(), static_cast<int64_t>(block.size()), 0.0f, 0.0f,
          0.0f);
      EXPECT_EQ(frozen, folded);
      EXPECT_EQ(Rmse(model, block, nullptr, &ops), std::sqrt(frozen / n));
      EXPECT_EQ(Rmse(model, block, &pool, &ops), std::sqrt(frozen / n));
    }
  }
}

// Each variant's error_block writes r - dot(p_u, q_v) from its own dot
// bit for bit at every row width, written in order and scattered by
// position (where it writes only the listed positions), and returns the
// in-order fold of its errors, with or without an output.
void TestErrorBlockMatchesDotPerVariant() {
  const int32_t rows = 120, cols = 90;
  Rng rng(13);
  const Ratings ratings = RandomBlock(3000, rows, cols, &rng);
  const int64_t n = static_cast<int64_t>(ratings.size());
  // Every third position from the back, neither list order nor a run,
  // and a copy of those ratings in that order, as a bucket holds them.
  std::vector<int32_t> pos;
  Ratings picked;
  for (int32_t j = static_cast<int32_t>(n) - 1; j >= 0; j -= 3) {
    pos.push_back(j);
    picked.push_back(ratings[static_cast<size_t>(j)]);
  }
  const int64_t picked_n = static_cast<int64_t>(picked.size());
  const float unwritten = -12345.0f;
  for (KernelKind kind : SupportedKinds()) {
    const KernelOps& ops = GetKernelOps(kind);
    for (int k : kRowWidths) {
      const Model model = RandomModel(rows, cols, k, 23);
      std::vector<float> want(static_cast<size_t>(n));
      for (size_t j = 0; j < want.size(); ++j) {
        const Rating& rt = ratings[j];
        want[j] = rt.r - ops.dot(model.Row(rt.u), model.Col(rt.v), k);
      }
      std::vector<float> got(static_cast<size_t>(n), unwritten);
      const double sum =
          ops.error_block(model.p_data(), model.q_data(), model.stride(), k,
                          ratings.data(), nullptr, n, got.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            sizeof(float) * want.size()),
                0);
      EXPECT_EQ(sum, SquaredErrorFold(ops, model, ratings));
      EXPECT_EQ(ops.error_block(model.p_data(), model.q_data(),
                                model.stride(), k, ratings.data(), nullptr,
                                n, nullptr),
                sum);

      std::vector<float> want_scattered(static_cast<size_t>(n), unwritten);
      for (int32_t j : pos) {
        want_scattered[static_cast<size_t>(j)] = want[static_cast<size_t>(j)];
      }
      std::vector<float> scattered(static_cast<size_t>(n), unwritten);
      const double scattered_sum = ops.error_block(
          model.p_data(), model.q_data(), model.stride(), k, picked.data(),
          pos.data(), picked_n, scattered.data());
      EXPECT_EQ(std::memcmp(scattered.data(), want_scattered.data(),
                            sizeof(float) * scattered.size()),
                0);
      EXPECT_EQ(scattered_sum, SquaredErrorFold(ops, model, picked));
      EXPECT_EQ(ops.error_block(model.p_data(), model.q_data(),
                                model.stride(), k, picked.data(),
                                pos.data(), picked_n, nullptr),
                scattered_sum);
    }
  }
}

/// One rating at a time, the update every variant's sgd_block must
/// reproduce bit for bit: the error from the variant's own dot, then per
/// lane the scalar kernel's plain expression, or for the SIMD variants
/// their fmsub/fmadd pair, each rounded once (std::fma).
double ReferenceSgdBlock(const KernelOps& ops, Model* model,
                         const Ratings& block, const SgdHyper& hyper) {
  const int k = model->k();
  const float lr = hyper.learning_rate;
  const float lp = hyper.lambda_p;
  const float lq = hyper.lambda_q;
  double sq_err = 0.0;
  for (const Rating& rt : block) {
    float* pu = model->Row(rt.u);
    float* qv = model->Col(rt.v);
    const float err = rt.r - ops.dot(pu, qv, k);
    for (int i = 0; i < k; ++i) {
      const float pi = pu[i];
      const float qi = qv[i];
      if (ops.kind == KernelKind::kScalar) {
        pu[i] = pi + lr * (err * qi - lp * pi);
        qv[i] = qi + lr * (err * pi - lq * qi);
      } else {
        pu[i] = std::fma(lr, std::fma(err, qi, -(lp * pi)), pi);
        qv[i] = std::fma(lr, std::fma(err, pi, -(lq * qi)), qi);
      }
    }
    sq_err += static_cast<double>(err) * err;
  }
  return sq_err;
}

// Each variant's sgd_block equals its one-rating-at-a-time reference bit
// for bit at every row width, on a block that repeats a row and a column
// back to back (the second update must read the first one's stores).
void TestSgdBlockBitExactPerVariant() {
  const int32_t rows = 300, cols = 250;
  Rng block_rng(41);
  Ratings block = RandomBlock(4000, rows, cols, &block_rng);
  block[1001].u = block[1000].u;
  block[2001].v = block[2000].v;
  block[3001].u = block[3000].u;
  block[3001].v = block[3000].v;
  const SgdHyper hyper{0.01f, 0.05f, 0.05f};
  for (KernelKind kind : SupportedKinds()) {
    const KernelOps& ops = GetKernelOps(kind);
    for (int k : kRowWidths) {
      Model got = RandomModel(rows, cols, k, 17);
      Model want = RandomModel(rows, cols, k, 17);
      const double got_sq = ops.sgd_block(
          got.p_data(), got.q_data(), got.stride(), k, block.data(),
          static_cast<int64_t>(block.size()), hyper.learning_rate,
          hyper.lambda_p, hyper.lambda_q);
      const double want_sq = ReferenceSgdBlock(ops, &want, block, hyper);
      EXPECT_EQ(got_sq, want_sq);
      const size_t p_bytes =
          static_cast<size_t>(rows) * got.stride() * sizeof(float);
      const size_t q_bytes =
          static_cast<size_t>(cols) * got.stride() * sizeof(float);
      EXPECT_EQ(std::memcmp(got.p_data(), want.p_data(), p_bytes), 0);
      EXPECT_EQ(std::memcmp(got.q_data(), want.q_data(), q_bytes), 0);
      ExpectPaddingZero(got);
    }
  }
}

// Per kernel, BatchTopK equals the brute-force scorer through the same
// kernel bit for bit, and ranks items exactly as the scalar kernel does.
void TestTopKOrderingEquivalence() {
  SyntheticSpec spec;
  spec.num_rows = 200;
  spec.num_cols = 300;
  spec.train_nnz = 8000;
  spec.test_nnz = 500;
  spec.params.k = 48;  // not a multiple of 16: exercises padded lanes
  auto ds = GenerateSynthetic(spec, 21);
  EXPECT_TRUE(ds.ok());
  if (!ds.ok()) return;
  Model model = RandomModel(ds->num_rows, ds->num_cols, ds->params.k, 33);
  auto snap = serve::FactorSnapshot::FromModel(model, ds->train, 1);
  EXPECT_TRUE(snap.ok());
  if (!snap.ok()) return;

  const std::vector<serve::TopKQuery> queries = {{0, 25}, {57, 25},
                                                 {199, 25}};
  const KernelOps& scalar = GetKernelOps(KernelKind::kScalar);
  auto expected =
      serve::BatchTopK(**snap, queries.data(), queries.size(), &scalar);
  for (KernelKind kind : SupportedKinds()) {
    const KernelOps& ops = GetKernelOps(kind);
    auto got = serve::BatchTopK(**snap, queries.data(), queries.size(), &ops);
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_TRUE(expected[q].ok());
      EXPECT_TRUE(got[q].ok());
      if (!expected[q].ok() || !got[q].ok()) continue;
      EXPECT_SAME_TOPK(*got[q],
                       testing::BruteForceTopK(model, ds->train,
                                               queries[q].user,
                                               queries[q].k, &ops));
      EXPECT_EQ(got[q]->size(), expected[q]->size());
      for (size_t i = 0; i < expected[q]->size() && i < got[q]->size();
           ++i) {
        EXPECT_EQ((*got[q])[i].item, (*expected[q])[i].item);
      }
    }
  }
}

// Checkpoint -> restore -> finish is bit-identical per kernel, and the
// resolved kernel kind round-trips through the file.
void TestCheckpointResumeBitIdenticalPerKernel() {
  const std::string path = "kernels_test_ckpt.bin";
  SyntheticSpec spec;
  spec.num_rows = 400;
  spec.num_cols = 350;
  spec.train_nnz = 25000;
  spec.test_nnz = 2500;
  spec.params.k = 16;
  spec.params.learning_rate = 0.01f;
  auto ds_or = GenerateSynthetic(spec, 13);
  EXPECT_TRUE(ds_or.ok());
  Dataset ds = *std::move(ds_or);

  for (KernelKind kind : SupportedKinds()) {
    TrainConfig cfg;
    cfg.algorithm = Algorithm::kHsgdStar;
    cfg.hardware.num_cpu_threads = 4;
    cfg.max_epochs = 4;
    cfg.use_dataset_target = false;
    cfg.eval_threads = 2;
    cfg.kernel = kind;

    auto reference = Session::Create(ds, cfg);
    EXPECT_TRUE(reference.ok());
    if (!reference.ok()) continue;
    EXPECT_TRUE((*reference)->RunToCompletion().ok());

    auto session = Session::Create(ds, cfg);
    EXPECT_TRUE(session.ok());
    if (!session.ok()) continue;
    EXPECT_EQ((*session)->kernel(), kind);
    EXPECT_TRUE((*session)->RunEpoch().ok());
    EXPECT_TRUE((*session)->RunEpoch().ok());
    EXPECT_TRUE((*session)->SaveCheckpoint(path).ok());

    auto restored = Session::Restore(path, ds);
    EXPECT_TRUE(restored.ok());
    if (!restored.ok()) continue;
    EXPECT_EQ((*restored)->kernel(), kind);
    while (!(*restored)->Done()) {
      auto point = (*restored)->RunEpoch();
      EXPECT_TRUE(point.ok());
      if (!point.ok()) break;
    }
    const auto& got = (*restored)->trace().points;
    const auto& want = (*reference)->trace().points;
    EXPECT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
      EXPECT_EQ(got[i].time, want[i].time);
      EXPECT_EQ(got[i].test_rmse, want[i].test_rmse);
      EXPECT_EQ(got[i].train_rmse, want[i].train_rmse);
    }
  }
  std::remove(path.c_str());
}

// kAuto is pinned to a concrete kind at Create and that concrete kind is
// what the checkpoint stores.
void TestAutoKernelPinnedInCheckpoint() {
  const std::string path = "kernels_test_auto_ckpt.bin";
  SyntheticSpec spec;
  spec.num_rows = 120;
  spec.num_cols = 100;
  spec.train_nnz = 5000;
  spec.test_nnz = 500;
  spec.params.k = 8;
  auto ds_or = GenerateSynthetic(spec, 3);
  EXPECT_TRUE(ds_or.ok());
  Dataset ds = *std::move(ds_or);
  TrainConfig cfg;
  cfg.algorithm = Algorithm::kCpuOnly;
  cfg.hardware.num_cpu_threads = 2;
  cfg.max_epochs = 2;
  cfg.use_dataset_target = false;
  cfg.kernel = KernelKind::kAuto;
  auto session = Session::Create(ds, cfg);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  EXPECT_TRUE((*session)->kernel() != KernelKind::kAuto);
  EXPECT_TRUE((*session)->RunEpoch().ok());
  EXPECT_TRUE((*session)->SaveCheckpoint(path).ok());
  auto ckpt = ReadCheckpoint(path);
  EXPECT_TRUE(ckpt.ok());
  if (ckpt.ok()) {
    EXPECT_EQ(ckpt->config.kernel, (*session)->kernel());
    // A stored kAuto can only be corruption (saves always pin a concrete
    // kind); restoring it would silently re-resolve per machine.
    SessionCheckpoint mutated = *ckpt;
    mutated.config.kernel = KernelKind::kAuto;
    EXPECT_TRUE(WriteCheckpoint(path, mutated, (*session)->model()).ok());
    EXPECT_FALSE(Session::Restore(path, ds).ok());
  }
  std::remove(path.c_str());
}

// A degenerate mean rating must not freeze training at all-zero factors.
void TestInitRandomDegenerateMean() {
  for (double mean : {0.0, -2.0}) {
    Model model(40, 30, 8);
    Rng rng(4);
    model.InitRandom(&rng, mean);
    int64_t nonzero = 0;
    for (int32_t u = 0; u < model.num_rows(); ++u) {
      for (int i = 0; i < model.k(); ++i) {
        nonzero += model.Row(u)[i] != 0.0f;
      }
    }
    EXPECT_LT(0, nonzero);
    ExpectPaddingZero(model);

    // And it actually trains: one sweep reduces the error on a block
    // whose ratings are all zero-mean-adjacent.
    Rng block_rng(6);
    Ratings block = RandomBlock(3000, 40, 30, &block_rng);
    const SgdHyper hyper{0.02f, 0.01f, 0.01f};
    double before = Rmse(model, block, nullptr);
    for (int sweep = 0; sweep < 5; ++sweep) {
      SgdUpdateBlock(&model, block, hyper);
    }
    EXPECT_LT(Rmse(model, block, nullptr), before);
  }
}

// Dense export/import round-trips the factors exactly at any stride.
void TestDenseRoundTrip() {
  Model model = RandomModel(50, 40, 20, 8);
  std::vector<float> p = model.DenseP();
  std::vector<float> q = model.DenseQ();
  EXPECT_EQ(p.size(), static_cast<size_t>(50 * 20));
  EXPECT_EQ(q.size(), static_cast<size_t>(40 * 20));
  Model other(50, 40, 20);
  other.SetDense(p, q);
  EXPECT_EQ(MaxFactorDelta(model, other), 0.0);
  ExpectPaddingZero(other);
}

void TestCalibrator() {
  for (KernelKind kind : SupportedKinds()) {
    const KernelCalibration cal =
        CalibrateKernel(kind, /*k=*/32, /*min_seconds=*/0.01);
    EXPECT_EQ(cal.kernel, kind);
    EXPECT_TRUE(std::isfinite(cal.updates_per_sec));
    EXPECT_LT(0.0, cal.updates_per_sec);
    // k=128 convention: rate scales by k/128.
    EXPECT_NEAR(cal.updates_per_sec_k128, cal.updates_per_sec * 32 / 128.0,
                1e-6 * cal.updates_per_sec);
  }
}

}  // namespace

void RunAllTests() {
  std::printf("cpu: avx2_usable=%d avx512_usable=%d; default kernel=%s\n",
              GetCpuFeatures().avx2_usable(),
              GetCpuFeatures().avx512_usable(),
              DefaultKernelOps().name);
  TestKindNamesAndResolution();
  TestKernelEquivalence();
  TestFrozenSweepMatchesReduction();
  TestErrorBlockMatchesDotPerVariant();
  TestSgdBlockBitExactPerVariant();
  TestTopKOrderingEquivalence();
  TestCheckpointResumeBitIdenticalPerKernel();
  TestAutoKernelPinnedInCheckpoint();
  TestInitRandomDegenerateMean();
  TestDenseRoundTrip();
  TestCalibrator();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
