// Fig. 11 — Running time to reach each dataset's target RMSE while varying
// the CPU thread count nc in {4, 8, 12, 16} (W fixed at 128).
//
// Expected shape (paper): GPU-Only is flat; CPU-Only improves with nc;
// HSGD* is fastest on every setting and also improves with nc.

#include <cstdio>

#include "bench_common.h"

using namespace hsgd;
using namespace hsgd::bench;

int main(int argc, char** argv) {
  BenchContext ctx = ParseContext(argc, argv, /*default_epochs=*/15);
  const int kThreadGrid[] = {4, 8, 12, 16};

  for (DatasetPreset preset : ctx.presets) {
    Dataset ds = MakeBenchDataset(preset, ctx);
    PrintHeader(StrFormat(
        "Fig.11 (%s): time to RMSE<=%.3g vs CPU threads (W=%d)",
        DatasetTitle(ctx, preset).c_str(), ds.target_rmse, ctx.workers));
    std::printf("%-10s %12s %12s %12s\n", "nc", "CPU-Only(s)",
                "GPU-Only(s)", "HSGD*(s)");

    // GPU-Only does not depend on nc; run it once.
    SimTime gpu_time =
        TimeToTarget(ctx, ds, MakeConfig(Algorithm::kGpuOnly, ctx, ds));
    for (int nc : kThreadGrid) {
      BenchContext tctx = ctx;
      tctx.threads = nc;
      SimTime cpu_time =
          TimeToTarget(tctx, ds, MakeConfig(Algorithm::kCpuOnly, tctx, ds));
      SimTime star_time =
          TimeToTarget(tctx, ds, MakeConfig(Algorithm::kHsgdStar, tctx, ds));
      std::printf("%-10d %12s %12s %12s\n", nc,
                  FormatTime(cpu_time).c_str(),
                  FormatTime(gpu_time).c_str(),
                  FormatTime(star_time).c_str());
    }
  }
  WriteObsArtifacts(ctx);
  return 0;
}
