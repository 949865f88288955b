// Fig. 3(a) + Fig. 7 — GPU update speed vs block size (Observation 1), and
// Fig. 3(b) — CPU per-thread update speed vs block size (Observation 2).
//
// Blocks are carved as shuffled prefixes of a Yahoo!Music-shaped synthetic
// matrix, exactly like the paper's microbenchmark; the GPU column reports
// both the end-to-end speed of a single block (transfer + kernel, what
// Fig. 3a measures) and the kernel-only speed (Fig. 7).
//
// Expected shape: GPU speed rises steeply for small blocks and flattens
// out (~120M pts/s at 128 workers); CPU speed is flat (~6M pts/s/thread).

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "sim/cpu_device.h"
#include "sim/gpu_device.h"

using namespace hsgd;
using namespace hsgd::bench;

int main(int argc, char** argv) {
  BenchContext ctx = ParseContext(argc, argv);

  SyntheticSpec spec =
      ScaledPresetSpec(DatasetPreset::kYahooMusic,
                       DefaultBenchScale(DatasetPreset::kYahooMusic) *
                           ctx.scale_mult);
  auto ds = GenerateSynthetic(spec, ctx.seed);
  HSGD_CHECK_OK(ds.status());
  Rng rng(ctx.seed, 3);
  Ratings sample = ds->train;
  ShuffleRatings(&sample, &rng);

  GpuDeviceSpec gpu_spec;
  gpu_spec.parallel_workers = ctx.workers;
  CpuDeviceSpec cpu_spec;
  if (ctx.calibrate) {
    // Fig. 3b against the machine this is running on: replace the paper's
    // ~6M updates/s/thread with the measured rate of the chosen kernel.
    cpu_spec.updates_per_sec_k128 = CalibratedRateK128(ctx.kernel, 128);
  }
  CpuDevice cpu(cpu_spec, 128);

  PrintHeader(StrFormat(
      "Fig.3(a)/Fig.7: GPU update speed vs block size (W=%d, k=128)",
      ctx.workers));
  std::printf("%-22s %16s %16s %18s\n", "block size (pts)",
              "end-to-end (M/s)", "kernel-only (M/s)", "transfer (M/s)");

  std::vector<char> row_seen(static_cast<size_t>(ds->num_rows), 0);
  std::vector<char> col_seen(static_cast<size_t>(ds->num_cols), 0);
  int64_t rows = 0, cols = 0, consumed = 0;
  for (int64_t nnz : {25000ll, 50000ll, 100000ll, 250000ll, 500000ll,
                      1000000ll, 1500000ll, 2000000ll, 2500000ll}) {
    if (nnz > static_cast<int64_t>(sample.size())) break;
    for (; consumed < nnz; ++consumed) {
      const Rating& rt = sample[static_cast<size_t>(consumed)];
      rows += !row_seen[static_cast<size_t>(rt.u)]++;
      cols += !col_seen[static_cast<size_t>(rt.v)]++;
    }
    GpuWorkItem item;
    item.nnz = nnz;
    item.rows = rows;
    item.cols = cols;
    GpuDevice fresh(gpu_spec, 128, /*pipelined=*/false);
    PipelineTiming t = fresh.Process(0.0, item);
    double end_to_end = nnz / (t.kernel_done - t.h2d_start);
    double kernel_only = nnz / (t.kernel_done - t.kernel_start);
    double transfer = nnz / (t.h2d_done - t.h2d_start);
    std::printf("%-22s %16.1f %16.1f %18.1f\n",
                WithThousandsSep(nnz).c_str(), end_to_end / 1e6,
                kernel_only / 1e6, transfer / 1e6);
  }

  PrintHeader("Fig.3(b): CPU per-thread update speed vs block size (k=128)");
  std::printf("%-22s %16s\n", "block size (pts)", "update speed (M/s)");
  for (int64_t nnz :
       {50000ll, 100000ll, 200000ll, 300000ll, 400000ll}) {
    std::printf("%-22s %16.2f\n", WithThousandsSep(nnz).c_str(),
                cpu.UpdateRate(nnz) / 1e6);
  }
  return 0;
}
