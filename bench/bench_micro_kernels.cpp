// Micro-benchmarks (google-benchmark) for the hot primitives: the SGD
// inner loop per kernel variant (scalar/avx2/avx512/auto — the kernel
// dispatch suite CI uploads as BENCH_kernels.json), RMSE evaluation,
// top-k scoring, the rated-item index build and merge, the id-map copy
// a snapshot publish makes, the block bucketing behind session set-up,
// simulator cost functions, scheduler acquire/release throughput, and
// whole full and incremental HSGD* epochs. Kernel-variant benches are
// registered at runtime so unsupported variants are simply absent rather
// than failing.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/hsgd.h"
#include "io/loader.h"
#include "obs/report.h"
#include "sched/blocked_matrix.h"
#include "sched/star_scheduler.h"
#include "sched/uniform_scheduler.h"
#include "serve/snapshot.h"
#include "sim/cpu_device.h"
#include "sim/gpu_device.h"
#include "util/thread_pool.h"

namespace hsgd {
namespace {

Dataset MicroDataset(int64_t nnz, int32_t m = 20000, int32_t n = 8000,
                     int64_t test_nnz = 1000) {
  SyntheticSpec spec;
  spec.num_rows = m;
  spec.num_cols = n;
  spec.train_nnz = nnz;
  spec.test_nnz = test_nnz;
  auto ds = GenerateSynthetic(spec, 7);
  HSGD_CHECK_OK(ds.status());
  return std::move(ds).value();
}

/// Factor traffic per SGD update: read + write of one P row and one Q
/// row (logical k lanes; the padded layout moves the same cache lines).
/// Reported as bytes/s so regressions in the aligned-storage layout show
/// up even when items/s looks flat.
int64_t SgdBytesPerUpdate(int k) { return 4LL * k * sizeof(float); }

void BM_SgdUpdateBlock(benchmark::State& state, KernelKind kind, int k) {
  auto resolved = ResolveKernelKind(kind);
  HSGD_CHECK_OK(resolved.status());
  const KernelOps& ops = GetKernelOps(*resolved);
  Dataset ds = MicroDataset(200000);
  Model model(ds.num_rows, ds.num_cols, k);
  Rng rng(1);
  model.InitRandom(&rng, 3.0);
  SgdHyper hyper{0.005f, 0.05f, 0.05f};
  for (auto _ : state) {
    benchmark::DoNotOptimize(SgdUpdateBlock(&model, ds.train, hyper, &ops));
  }
  const int64_t items =
      state.iterations() * static_cast<int64_t>(ds.train.size());
  state.SetItemsProcessed(items);
  state.SetBytesProcessed(items * SgdBytesPerUpdate(k));
  state.SetLabel(ops.name);
}

/// Serial RMSE at k=128 over the ratings in stored order, the way the
/// session evaluates its test split.
void BM_RmseKernel(benchmark::State& state, KernelKind kind) {
  auto resolved = ResolveKernelKind(kind);
  HSGD_CHECK_OK(resolved.status());
  const KernelOps& ops = GetKernelOps(*resolved);
  Dataset ds = MicroDataset(300000);
  Model model(ds.num_rows, ds.num_cols, 128);
  Rng rng(1);
  model.InitRandom(&rng, 3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Rmse(model, ds.train, nullptr, &ops));
  }
  const int64_t items =
      state.iterations() * static_cast<int64_t>(ds.train.size());
  state.SetItemsProcessed(items);
  state.SetBytesProcessed(items * 2LL * 128 * sizeof(float));
  state.SetLabel(ops.name);
}

void BM_BatchTopK(benchmark::State& state, KernelKind kind) {
  auto resolved = ResolveKernelKind(kind);
  HSGD_CHECK_OK(resolved.status());
  const KernelOps& ops = GetKernelOps(*resolved);
  Dataset ds = MicroDataset(300000);
  Model model(ds.num_rows, ds.num_cols, 128);
  Rng rng(1);
  model.InitRandom(&rng, 3.0);
  auto snapshot = serve::FactorSnapshot::FromModel(model, ds.train, 1);
  HSGD_CHECK_OK(snapshot.status());
  std::vector<float> scratch;
  serve::TopKQuery query{0, 100};
  for (auto _ : state) {
    auto top = serve::BatchTopK(**snapshot, &query, 1, &ops, &scratch);
    HSGD_CHECK_OK(top[0].status());
    benchmark::DoNotOptimize(top);
    query.user = (query.user + 1) % ds.num_rows;
  }
  state.SetItemsProcessed(state.iterations() * ds.num_cols);
  state.SetLabel(ops.name);
}

/// The rated-item index at the end-of-run shape of the benchmark's
/// `live` workload (14,000 x 6,000, 2 M ratings): a from-scratch Build
/// of every rating, or a Merge of the last 3,000 (a typical publish
/// round) into an index of the rest. Both count the ratings the result
/// indexes, so items/s compare directly.
void BM_RatedIndex(benchmark::State& state, bool merge) {
  const Dataset ds = MicroDataset(2000000, 14000, 6000);
  const auto split = ds.train.end() - 3000;
  const Ratings added(split, ds.train.end());
  const RatedIndex base = RatedIndex::Build(Ratings(ds.train.begin(), split),
                                            ds.num_rows, ds.num_cols);
  for (auto _ : state) {
    RatedIndex index =
        merge ? RatedIndex::Merge(base, added, ds.num_rows, ds.num_cols)
              : RatedIndex::Build(ds.train, ds.num_rows, ds.num_cols);
    benchmark::DoNotOptimize(index.items.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.train.size()));
}
BENCHMARK_CAPTURE(BM_RatedIndex, build, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RatedIndex, merge, true)
    ->Unit(benchmark::kMillisecond);

/// BlockedMatrix::Build, the block bucketing in Session::Create and
/// Restore: 1 M ratings on the 34 x 34 column-share grid HSGD* builds
/// for 16 CPU threads + 1 GPU (2 GPU stripes holding half the mass, 32
/// CPU stripes sharing the rest), with the per-block shuffle.
void BM_BlockedMatrix(benchmark::State& state) {
  const Dataset ds = MicroDataset(1000000);
  std::vector<double> shares(2, 0.5 / 2);
  shares.resize(34, 0.5 / 32);
  auto grid =
      BuildGridWithColShares(ds.train, ds.num_rows, ds.num_cols, 34, shares);
  HSGD_CHECK_OK(grid.status());
  for (auto _ : state) {
    Rng rng(2);
    auto matrix = BlockedMatrix::Build(ds.train, *grid, &rng);
    HSGD_CHECK_OK(matrix.status());
    benchmark::DoNotOptimize(matrix);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.train.size()));
}
BENCHMARK(BM_BlockedMatrix)
    ->Name("BM_BlockedMatrix/build")
    ->Unit(benchmark::kMillisecond);

/// The copy of one id map that every snapshot publish makes (and the
/// free when that snapshot is dropped): 20,000 raw ids, about the user
/// count of the benchmark's `live` workload by the end of its stream.
void BM_IdMap(benchmark::State& state) {
  io::IdMap map;
  Rng rng(4);
  for (int i = 0; i < 20000; ++i) {
    map.Assign(static_cast<int64_t>(rng.NextU64() >> 1));
  }
  for (auto _ : state) {
    io::IdMap copy = map;
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * map.size());
}
BENCHMARK(BM_IdMap)->Name("BM_IdMap/copy");

void BM_RmseParallel(benchmark::State& state) {
  Dataset ds = MicroDataset(300000);
  Model model(ds.num_rows, ds.num_cols, 128);
  Rng rng(1);
  model.InitRandom(&rng, 3.0);
  ThreadPool pool(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Rmse(model, ds.train, &pool));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.train.size()));
}
BENCHMARK(BM_RmseParallel);

void BM_GpuKernelModel(benchmark::State& state) {
  SimtKernelModel model(GpuDeviceSpec(), 128);
  int64_t nnz = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ExecTime(nnz, nnz / 10, nnz / 20));
    nnz = nnz % 1000000 + 997;
  }
}
BENCHMARK(BM_GpuKernelModel);

void BM_PcieTransferModel(benchmark::State& state) {
  PcieLink link((GpuDeviceSpec()));
  int64_t bytes = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        link.TransferTime(bytes, TransferDirection::kHostToDevice));
    bytes = bytes % (256 << 20) + 4093;
  }
}
BENCHMARK(BM_PcieTransferModel);

void BM_UniformSchedulerAcquireRelease(benchmark::State& state) {
  Dataset ds = MicroDataset(300000);
  auto grid =
      BuildBalancedGrid(ds.train, ds.num_rows, ds.num_cols, 16, 17);
  HSGD_CHECK_OK(grid.status());
  Rng rng(3);
  auto matrix = BlockedMatrix::Build(ds.train, *grid, &rng);
  HSGD_CHECK_OK(matrix.status());
  UniformScheduler scheduler(&*matrix, &*grid, Rng(5));
  WorkerInfo worker{DeviceClass::kCpuThread, 0, 0};
  scheduler.BeginEpoch();
  for (auto _ : state) {
    std::optional<BlockTask> task = scheduler.Acquire(worker);
    if (task) {
      scheduler.Release(*task);
    } else {
      state.PauseTiming();
      scheduler.BeginEpoch();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_UniformSchedulerAcquireRelease);

void BM_ProfilerBuildModel(benchmark::State& state) {
  Dataset ds = MicroDataset(500000);
  Profiler profiler(GpuDeviceSpec(), CpuDeviceSpec(), 128);
  for (auto _ : state) {
    auto model = profiler.BuildHsgdModel(ds);
    HSGD_CHECK_OK(model.status());
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_ProfilerBuildModel);

void BM_FullEpochHsgdStar(benchmark::State& state) {
  Dataset ds = MicroDataset(500000);
  ds.params.k = 32;
  TrainConfig cfg;
  cfg.algorithm = Algorithm::kHsgdStar;
  cfg.max_epochs = 1;
  cfg.use_dataset_target = false;
  std::unique_ptr<Session> session;
  for (auto _ : state) {
    // Creating a session (and destroying the last one) takes longer than
    // the epoch at this shape, so only the epoch is timed.
    state.PauseTiming();
    session.reset();
    auto created = Session::Create(ds, cfg);
    HSGD_CHECK_OK(created.status());
    session = *std::move(created);
    state.ResumeTiming();
    auto point = session->RunEpoch();
    HSGD_CHECK_OK(point.status());
    benchmark::DoNotOptimize(*point);
  }
  state.SetItemsProcessed(state.iterations() * ds.train_size());
}
BENCHMARK(BM_FullEpochHsgdStar)->Unit(benchmark::kMillisecond);

/// One incremental HSGD* epoch after a small append, the train step of a
/// `live` round: a warm session (10,000 x 4,000, 500 k ratings, a test
/// split of 10% of that as `live` has, k = 32, the default 16 CPU threads
/// + 1 GPU, and `live`'s 1-thread eval pool) takes 300 new ratings of
/// warm users and items, untimed, then RunIncrementalEpoch sweeps the
/// blocks they dirtied: the event loop, the SGD sweep and the test RMSE.
/// Its side task merges the batch into a rated-item index of the
/// dataset, writing into the storage the previous round's index left, as
/// OnlineTrainer::TrainDirty does.
void BM_IncrementalEpochHsgdStar(benchmark::State& state) {
  Dataset ds = MicroDataset(500000, 10000, 4000, 50000);
  ds.params.k = 32;
  TrainConfig cfg;
  cfg.algorithm = Algorithm::kHsgdStar;
  cfg.max_epochs = 1 << 24;
  cfg.use_dataset_target = false;
  cfg.eval_threads = 1;
  auto session = Session::Create(ds, cfg);
  HSGD_CHECK_OK(session.status());
  HSGD_CHECK_OK((*session)->RunEpoch().status());
  RatedIndex rated = RatedIndex::Build(ds.train, ds.num_rows, ds.num_cols);
  RatedIndex spare;
  Rng rng(6);
  Ratings batch(300);
  for (auto _ : state) {
    state.PauseTiming();
    for (Rating& r : batch) {
      r.u = static_cast<int32_t>(rng.UniformInt(ds.num_rows));
      r.v = static_cast<int32_t>(rng.UniformInt(ds.num_cols));
      r.r = 1.0f + 4.0f * rng.NextFloat();
    }
    HSGD_CHECK_OK((*session)->AppendRatings(batch));
    state.ResumeTiming();
    auto point = (*session)->RunIncrementalEpoch([&] {
      RatedIndex::Merge(rated, batch, ds.num_rows, ds.num_cols, &spare);
    });
    HSGD_CHECK_OK(point.status());
    std::swap(rated, spare);
    benchmark::DoNotOptimize(*point);
  }
}
BENCHMARK(BM_IncrementalEpochHsgdStar)->Unit(benchmark::kMillisecond);

void BM_SessionCheckpointRoundtrip(benchmark::State& state) {
  Dataset ds = MicroDataset(200000);
  ds.params.k = 32;
  TrainConfig cfg;
  cfg.algorithm = Algorithm::kHsgdStar;
  cfg.max_epochs = 2;
  cfg.use_dataset_target = false;
  auto session = Session::Create(ds, cfg);
  HSGD_CHECK_OK(session.status());
  HSGD_CHECK_OK((*session)->RunEpoch().status());
  const std::string path = "bench_micro_ckpt.bin";
  for (auto _ : state) {
    HSGD_CHECK_OK((*session)->SaveCheckpoint(path));
    auto restored = Session::Restore(path, ds);
    HSGD_CHECK_OK(restored.status());
    benchmark::DoNotOptimize(*restored);
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_SessionCheckpointRoundtrip)->Unit(benchmark::kMillisecond);

}  // namespace

/// Per-variant registrations (scalar/avx2/avx512/auto x k=32/128 for the
/// SGD sweep). Done at runtime from main(): only the variants this
/// machine/build can run are registered, so JSON output never contains
/// skipped-with-error rows.
void RegisterKernelVariantBenches() {
  for (KernelKind kind : {KernelKind::kScalar, KernelKind::kAvx2,
                          KernelKind::kAvx512, KernelKind::kAuto}) {
    if (!KernelSupported(kind)) continue;
    const std::string variant = KernelKindName(kind);
    for (int k : {32, 128}) {
      benchmark::RegisterBenchmark(
          ("BM_SgdUpdateBlock/" + variant + "/" + std::to_string(k))
              .c_str(),
          [kind, k](benchmark::State& state) {
            BM_SgdUpdateBlock(state, kind, k);
          });
    }
    benchmark::RegisterBenchmark(
        ("BM_Rmse/" + variant).c_str(),
        [kind](benchmark::State& state) { BM_RmseKernel(state, kind); });
    benchmark::RegisterBenchmark(
        ("BM_BatchTopK/" + variant + "/100").c_str(),
        [kind](benchmark::State& state) { BM_BatchTopK(state, kind); });
  }
}

/// Console reporter that also collects every run, so --report can render
/// them into the shared hsgd.run_report/v1 envelope after the fact.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.error_occurred) continue;
      obs::Json entry = obs::Json::Object();
      entry.Set("name", obs::Json::Str(r.benchmark_name()))
          .Set("iterations", obs::Json::Int(r.iterations))
          .Set("real_time", obs::Json::Double(r.GetAdjustedRealTime()))
          .Set("cpu_time", obs::Json::Double(r.GetAdjustedCPUTime()))
          .Set("time_unit",
               obs::Json::Str(benchmark::GetTimeUnitString(r.time_unit)));
      obs::Json counters = obs::Json::Object();
      for (const auto& [name, counter] : r.counters) {
        counters.Set(name, obs::Json::Double(counter.value));
      }
      entry.Set("counters", std::move(counters));
      results_.Push(std::move(entry));
    }
  }

  obs::Json TakeResults() { return std::move(results_); }

 private:
  obs::Json results_ = obs::Json::Array();
};

}  // namespace hsgd

int main(int argc, char** argv) {
  // --report=<path> is ours, not google-benchmark's: strip it before
  // Initialize rejects it. --benchmark_out & friends pass through
  // untouched, so the raw google-benchmark JSON artifact keeps working.
  std::string report_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--report=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      report_path = argv[i] + std::strlen(kFlag);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  hsgd::RegisterKernelVariantBenches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (report_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }
  hsgd::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  hsgd::obs::RunReport report("micro_kernels");
  report.results() = reporter.TakeResults();
  HSGD_CHECK_OK(report.WriteTo(report_path));
  std::printf("wrote %s\n", report_path.c_str());
  return 0;
}
