// Fig. 12 — Test RMSE over (virtual) training time for CPU-Only, GPU-Only
// and HSGD* on the four benchmark datasets.
//
// Expected shape (paper): all three converge to a similar loss value;
// HSGD*'s curve drops fastest and reaches every loss level first.
//
// This bench drives the Session API stepwise: its RunEpoch loop prints
// each trace point as its epoch completes (no waiting for the full run),
// and the checkpoint flags exercise save/kill/resume:
//
//   --checkpoint=<path>     where to write checkpoints
//   --checkpoint-every=<n>  save after every n-th epoch
//   --stop-after=<n>        exit after n epochs (a controlled "kill")
//   --resume=<path>         restore from a checkpoint and finish the run
//
// A resumed run reproduces the uninterrupted run's remaining epochs
// bit-for-bit, so diffing the final trace lines of the two is the
// round-trip check CI performs. Checkpoint flags require a single
// --datasets entry (and --checkpoint a single --algos entry), since a
// checkpoint binds to one session; --resume takes the full training
// config from the checkpoint and ignores --algos/--epochs.

#include <cstdio>

#include "bench_common.h"

using namespace hsgd;
using namespace hsgd::bench;

namespace {

std::vector<Algorithm> ParseAlgos(const std::string& list) {
  std::vector<Algorithm> algos;
  for (const std::string& name : Split(list, ',')) {
    if (name == "cpu") {
      algos.push_back(Algorithm::kCpuOnly);
    } else if (name == "gpu") {
      algos.push_back(Algorithm::kGpuOnly);
    } else if (name == "hsgd") {
      algos.push_back(Algorithm::kHsgd);
    } else if (name == "star") {
      algos.push_back(Algorithm::kHsgdStar);
    } else {
      HSGD_LOG(Fatal) << "unknown algorithm '" << name
                      << "' (expected cpu, gpu, hsgd or star)";
    }
  }
  return algos;
}

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx = ParseContext(
      argc, argv, /*default_epochs=*/25,
      {{"algos", "<a,b>",
        "comma list of cpu/gpu/hsgd/star (default cpu,gpu,star)"},
       {"checkpoint", "<path>", "write checkpoints to this file"},
       {"checkpoint-every", "<n>",
        "save a checkpoint every n epochs (default 1 with --checkpoint)"},
       {"stop-after", "<n>",
        "stop after n epochs (controlled kill for resume testing)"},
       {"resume", "<path>", "restore from a checkpoint and continue"}});
  const std::vector<Algorithm> algos =
      ParseAlgos(ctx.flags.GetString("algos", "cpu,gpu,star"));
  const std::string checkpoint_path = ctx.flags.GetString("checkpoint", "");
  // --checkpoint alone means "checkpoint every epoch", so the stop
  // message never names a file that was silently never written.
  const int checkpoint_every = static_cast<int>(
      ctx.flags.GetInt("checkpoint-every", checkpoint_path.empty() ? 0 : 1));
  const int stop_after =
      static_cast<int>(ctx.flags.GetInt("stop-after", 0));
  const std::string resume_path = ctx.flags.GetString("resume", "");
  if (!checkpoint_path.empty() || !resume_path.empty()) {
    HSGD_CHECK(ctx.presets.size() == 1)
        << "checkpoint/resume flags need exactly one --datasets entry "
           "(a checkpoint binds to one session)";
  }
  if (checkpoint_path.empty() && !resume_path.empty()) {
    // The checkpoint stores the full TrainConfig; resume replays it.
    std::printf(
        "# --resume: training config (algorithm/epochs/hardware/seed) "
        "comes from the checkpoint; --algos and --epochs are ignored\n");
  } else if (!checkpoint_path.empty()) {
    HSGD_CHECK(algos.size() == 1)
        << "--checkpoint needs exactly one --algos entry (a checkpoint "
           "binds to one session)";
  }

  // Drives one session to completion (or --stop-after), printing each
  // epoch's trace line and checkpointing as requested. Returns false when
  // --stop-after cut the run short.
  auto drive = [&](Session* session) {
    session->SetObservability(ctx.obs.Sinks());
    const char* algorithm = AlgorithmName(session->config().algorithm);
    while (!session->Done()) {
      auto p = session->RunEpoch();
      HSGD_CHECK_OK(p.status());
      std::printf("%-10s %8d %12.3f %12.4f %12.4f\n", algorithm, p->epoch,
                  p->time, p->test_rmse, p->train_rmse);
      const int epoch = p->epoch;
      if (checkpoint_every > 0 && !checkpoint_path.empty() &&
          epoch % checkpoint_every == 0) {
        HSGD_CHECK_OK(session->SaveCheckpoint(checkpoint_path));
      }
      if (stop_after > 0 && epoch >= stop_after) {
        std::printf("# stopping after epoch %d (checkpoint: %s)\n", epoch,
                    checkpoint_path.empty() ? "none"
                                            : checkpoint_path.c_str());
        return false;
      }
    }
    return true;
  };

  for (DatasetPreset preset : ctx.presets) {
    Dataset ds = MakeBenchDataset(preset, ctx);
    PrintHeader(StrFormat("Fig.12 (%s): test RMSE over time  [%d x %d, "
                          "%lld train ratings, target %.3g]",
                          DatasetTitle(ctx, preset).c_str(), ds.num_rows, ds.num_cols,
                          static_cast<long long>(ds.train_size()),
                          ds.target_rmse));
    std::printf("%-10s %8s %12s %12s %12s\n", "algorithm", "epoch",
                "time(s)", "test-RMSE", "train-RMSE");
    if (!resume_path.empty()) {
      auto restored = Session::Restore(resume_path, ds);
      HSGD_CHECK_OK(restored.status());
      std::printf("# resumed from %s at epoch %d\n", resume_path.c_str(),
                  (*restored)->epochs_run());
      if (!drive(restored->get())) {
        WriteObsArtifacts(ctx);
        return 0;
      }
      continue;
    }
    for (Algorithm algorithm : algos) {
      TrainConfig cfg = MakeConfig(algorithm, ctx, ds);
      cfg.use_dataset_target = false;  // run the full budget: full curves
      auto session = Session::Create(ds, cfg);
      HSGD_CHECK_OK(session.status());
      if (!drive(session->get())) {
        WriteObsArtifacts(ctx);
        return 0;
      }
    }
  }
  WriteObsArtifacts(ctx);
  return 0;
}
