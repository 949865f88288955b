// Table II — Comparison of cost models: workload proportions assigned to
// CPUs ("C") and GPUs ("G") by Qilin (HSGD*-Q) vs the paper's model
// (HSGD*-M), and the running time of a fixed number of iterations under
// each split. Dynamic scheduling is disabled for both, as in the paper.
//
// Expected shape: HSGD*-M runs faster on every dataset; it assigns more
// work to the GPU than Qilin on the large datasets (where Eq. 9's
// max-of-streams beats Qilin's serial sum) and less on MovieLens (where
// the saturation curve says the GPU is weak on small inputs).

#include <cstdio>

#include "bench_common.h"

using namespace hsgd;
using namespace hsgd::bench;

int main(int argc, char** argv) {
  BenchContext ctx = ParseContext(argc, argv, /*default_epochs=*/10);

  PrintHeader(StrFormat(
      "Table II: cost models (HSGD*-Q = Qilin, HSGD*-M = ours), "
      "%d iterations, dynamic scheduling off",
      ctx.max_epochs));
  std::printf("%-14s %10s %10s %12s %10s %10s %12s\n", "dataset", "Q:C%",
              "Q:G%", "Q time(s)", "M:C%", "M:G%", "M time(s)");

  for (DatasetPreset preset : ctx.presets) {
    Dataset ds = MakeBenchDataset(preset, ctx);
    double split[2][2];  // [model][cpu/gpu]
    double times[2];
    int i = 0;
    for (CostModelKind kind :
         {CostModelKind::kQilin, CostModelKind::kOurs}) {
      TrainConfig cfg = MakeConfig(Algorithm::kHsgdStar, ctx, ds);
      cfg.cost_model = kind;
      cfg.dynamic_scheduling = false;  // isolate the cost-model effect
      cfg.use_dataset_target = false;  // fixed iteration count
      TrainResult result = RunSession(ctx, ds, cfg);
      split[i][0] = (1.0 - result.stats.sim.alpha) * 100.0;
      split[i][1] = result.stats.sim.alpha * 100.0;
      times[i] = result.stats.sim.seconds;
      ++i;
    }
    std::printf("%-14s %9.2f%% %9.2f%% %12.3f %9.2f%% %9.2f%% %12.3f\n",
                DatasetTitle(ctx, preset).c_str(), split[0][0], split[0][1], times[0],
                split[1][0], split[1][1], times[1]);
  }
  WriteObsArtifacts(ctx);
  return 0;
}
