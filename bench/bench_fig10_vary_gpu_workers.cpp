// Fig. 10 — Running time to reach each dataset's target RMSE while varying
// the GPU parallel workers W in {32, 64, 128, 256, 512} (nc fixed at 16).
//
// Expected shape (paper): CPU-Only is flat; GPU-Only starts slower than
// CPU-Only at W=32 and overtakes it as W grows; HSGD* is fastest at every
// W and keeps improving with W.

#include <cstdio>

#include "bench_common.h"

using namespace hsgd;
using namespace hsgd::bench;

int main(int argc, char** argv) {
  BenchContext ctx = ParseContext(argc, argv, /*default_epochs=*/15);
  const int kWorkerGrid[] = {32, 64, 128, 256, 512};

  for (DatasetPreset preset : ctx.presets) {
    Dataset ds = MakeBenchDataset(preset, ctx);
    PrintHeader(StrFormat(
        "Fig.10 (%s): time to RMSE<=%.3g vs GPU parallel workers (nc=%d)",
        DatasetTitle(ctx, preset).c_str(), ds.target_rmse, ctx.threads));
    std::printf("%-10s %12s %12s %12s\n", "W", "CPU-Only(s)",
                "GPU-Only(s)", "HSGD*(s)");

    // CPU-Only does not depend on W; run it once.
    SimTime cpu_time =
        TimeToTarget(ctx, ds, MakeConfig(Algorithm::kCpuOnly, ctx, ds));
    for (int w : kWorkerGrid) {
      BenchContext wctx = ctx;
      wctx.workers = w;
      SimTime gpu_time =
          TimeToTarget(wctx, ds, MakeConfig(Algorithm::kGpuOnly, wctx, ds));
      SimTime star_time =
          TimeToTarget(wctx, ds, MakeConfig(Algorithm::kHsgdStar, wctx, ds));
      std::printf("%-10d %12s %12s %12s\n", w,
                  FormatTime(cpu_time).c_str(),
                  FormatTime(gpu_time).c_str(),
                  FormatTime(star_time).c_str());
    }
  }
  WriteObsArtifacts(ctx);
  return 0;
}
