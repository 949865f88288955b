// Fig. 13 — Test RMSE over time: HSGD (uniform division, GPU as one more
// worker) vs HSGD* (nonuniform division).
//
// Expected shape (paper): at any time budget HSGD* sits at a lower RMSE;
// the gap widens on the larger datasets, where HSGD additionally suffers
// the Example 3 update imbalance (reported here as the update-rate CV).

#include <cstdio>

#include "bench_common.h"

using namespace hsgd;
using namespace hsgd::bench;

int main(int argc, char** argv) {
  BenchContext ctx = ParseContext(argc, argv, /*default_epochs=*/15);

  for (DatasetPreset preset : ctx.presets) {
    Dataset ds = MakeBenchDataset(preset, ctx);
    PrintHeader(StrFormat("Fig.13 (%s): HSGD vs HSGD* RMSE over time",
                          DatasetTitle(ctx, preset).c_str()));
    std::printf("%-10s %8s %12s %12s\n", "algorithm", "epoch", "time(s)",
                "test-RMSE");
    for (Algorithm algorithm : {Algorithm::kHsgd, Algorithm::kHsgdStar}) {
      TrainConfig cfg = MakeConfig(algorithm, ctx, ds);
      cfg.use_dataset_target = false;
      TrainResult result = RunSession(ctx, ds, cfg);
      for (const TracePoint& p : result.trace.points) {
        std::printf("%-10s %8d %12.3f %12.4f\n", AlgorithmName(algorithm),
                    p.epoch, p.time, p.test_rmse);
      }
      std::printf("%-10s update-rate CV = %.3f\n",
                  AlgorithmName(algorithm), result.stats.sim.update_rate_cv);
    }
  }
  WriteObsArtifacts(ctx);
  return 0;
}
