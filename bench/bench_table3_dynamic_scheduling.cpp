// Table III — Effectiveness of dynamic scheduling: running time of a fixed
// number of iterations for HSGD*-M (our cost model, no work stealing) vs
// the full HSGD* (cost model + dynamic phase).
//
// Expected shape: HSGD* is faster on every dataset; the improvement is
// smallest on MovieLens (the GPU is never saturated there, so stealing
// helps least).
//
// Each session runs through its own RunEpoch loop; --verbose prints every
// epoch's simulated duration and the elements the dynamic phase stole
// during it (the change in stats().sim.stolen_by_*) as it completes.

#include <cstdio>

#include "bench_common.h"

using namespace hsgd;
using namespace hsgd::bench;

namespace {

/// Trains one session to completion and returns its stats; `verbose`
/// prints each epoch as RunEpoch returns it.
TrainStats Run(const BenchContext& ctx, const Dataset& ds,
               const TrainConfig& cfg, bool verbose) {
  auto session = Session::Create(ds, cfg);
  HSGD_CHECK_OK(session.status());
  (*session)->SetObservability(ctx.obs.Sinks());
  SimTime last_clock = 0.0;
  int64_t last_stolen = 0;
  while (!(*session)->Done()) {
    auto p = (*session)->RunEpoch();
    HSGD_CHECK_OK(p.status());
    const SimStats sim = (*session)->stats().sim;
    const int64_t stolen = sim.stolen_by_gpus + sim.stolen_by_cpus;
    if (verbose) {
      std::printf("#   %-7s epoch %2d: %7.3fs  +%s stolen\n",
                  AlgorithmName(cfg.algorithm), p->epoch,
                  p->time - last_clock,
                  WithThousandsSep(stolen - last_stolen).c_str());
    }
    last_clock = p->time;
    last_stolen = stolen;
  }
  return (*session)->stats();
}

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx = ParseContext(
      argc, argv, /*default_epochs=*/10,
      {{"runs", "<n>", "averaging runs (default 3)"},
       {"verbose", "", "stream per-epoch timings and steal deltas"}});
  int runs = static_cast<int>(ctx.flags.GetInt("runs", 3));
  const bool verbose = ctx.flags.GetBool("verbose", false);

  PrintHeader(StrFormat(
      "Table III: dynamic scheduling (%d iterations, mean of %d runs "
      "with device speed variability)",
      ctx.max_epochs, runs));
  std::printf("%-14s %16s %14s %12s %16s\n", "dataset", "HSGD*-M(s)",
              "HSGD*(s)", "speedup", "stolen elems");

  for (DatasetPreset preset : ctx.presets) {
    Dataset ds = MakeBenchDataset(preset, ctx);
    double times[2] = {0.0, 0.0};
    int64_t stolen = 0;
    // Average over seeds: each run draws different device-speed factors,
    // standing in for the paper's run-to-run hardware variability.
    for (int run = 0; run < runs; ++run) {
      int i = 0;
      for (bool dynamic : {false, true}) {
        TrainConfig cfg = MakeConfig(Algorithm::kHsgdStar, ctx, ds);
        cfg.dynamic_scheduling = dynamic;
        cfg.use_dataset_target = false;
        cfg.seed = ctx.seed + static_cast<uint64_t>(run);
        const TrainStats stats = Run(ctx, ds, cfg, verbose);
        times[i++] += stats.sim.seconds / runs;
        if (dynamic) {
          stolen += (stats.sim.stolen_by_gpus + stats.sim.stolen_by_cpus) /
                    runs;
        }
      }
    }
    std::printf("%-14s %16.3f %14.3f %11.2fx %16s\n",
                DatasetTitle(ctx, preset).c_str(),
                times[0], times[1], times[0] / times[1],
                WithThousandsSep(stolen).c_str());
  }
  WriteObsArtifacts(ctx);
  return 0;
}
