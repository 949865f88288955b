// Shared plumbing for the paper-reproduction benchmark binaries.
//
// Every bench accepts the shared flag table below (printed by --help);
// unknown flags are an error naming the flag, so a typo'd --epoch=5
// fails loudly instead of silently running the default budget:
//   --scale=<mult>    multiply each preset's default bench scale (default 1)
//   --threads=<nc>    simulated CPU threads (default 16, the paper's default)
//   --gpus=<ng>       GPUs (default 1)
//   --workers=<W>     GPU parallel workers (default 128)
//   --epochs=<cap>    epoch budget (default per bench)
//   --datasets=a,b    comma list (default: all four presets)
//   --seed=<n>
//   --kernel=<name>   SGD/scoring kernel: auto, scalar, avx2, avx512
//   --calibrate       use the measured kernel rate as the sim's CPU rate
//
// Training benches run through the Session API (RunSession below); the
// RMSE-curve and dynamic-scheduling benches loop over RunEpoch
// themselves to print each epoch as it completes.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hsgd.h"
#include "io/loader.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace hsgd::bench {

/// Observability sinks + artifact paths requested on the command line.
/// Sinks exist only when their artifact was asked for, so a bench run
/// without obs flags allocates nothing and attaches nothing — the
/// disabled path stays bit-identical to a build without obs at all.
struct BenchObs {
  std::string trace_path;
  std::string metrics_path;
  std::string prom_path;
  std::string report_path;
  std::shared_ptr<obs::MetricsRegistry> registry;
  std::shared_ptr<obs::Tracer> tracer;

  /// The (possibly empty) sink set to hand Session::SetObservability.
  Observability Sinks() const { return {registry.get(), tracer.get()}; }
};

struct BenchContext {
  CliFlags flags;
  double scale_mult = 1.0;
  int threads = 16;
  int gpus = 1;
  int workers = 128;
  int max_epochs = 30;
  uint64_t seed = 1;
  /// --kernel: compute-kernel variant for the real SGD/RMSE arithmetic.
  KernelKind kernel = KernelKind::kAuto;
  /// --calibrate: measure the real kernel rate (CalibratedRateK128) and
  /// give it to the simulator as the CPU rate.
  bool calibrate = false;
  std::vector<DatasetPreset> presets;
  /// Real dataset loaded via --data/--format; when set, `presets` holds a
  /// single placeholder entry and MakeBenchDataset returns this instead
  /// of a synthetic stand-in.
  std::shared_ptr<Dataset> loaded;
  std::string data_path;
  /// Short bench name from argv[0] ("fig12", "table3", ...), used as the
  /// run report's "bench" tag when the binary builds no report itself.
  std::string bench_name = "bench";
  /// --trace/--metrics/--prom/--report sinks (see BenchObs).
  BenchObs obs;
};

inline std::vector<FlagSpec> SharedFlagSpecs() {
  return {
      {"scale", "<mult>",
       "multiply each preset's default bench scale (default 1)"},
      {"threads", "<nc>", "simulated CPU threads (default 16)"},
      {"gpus", "<ng>", "simulated GPUs (default 1)"},
      {"workers", "<W>", "GPU parallel workers (default 128)"},
      {"epochs", "<cap>", "epoch budget (default per bench)"},
      {"datasets", "<a,b>",
       "comma list of presets (default: all four presets)"},
      {"seed", "<n>", "RNG seed (default 1)"},
      {"data", "<path>",
       "load real ratings from this file (netflix: file or directory) "
       "instead of the synthetic presets"},
      {"format", "<name>",
       "rating-dump format for --data: movielens, netflix or csv"},
      {"test-split", "<frac>",
       "held-out fraction of loaded ratings (default 0.1)"},
      {"max-bad-lines", "<n>",
       "quarantine up to n malformed --data lines instead of failing "
       "(default 0: strict)"},
      {"kernel", "<name>",
       "SGD/scoring kernel: auto, scalar, avx2, avx512 (default auto)"},
      {"calibrate", "",
       "micro-measure the chosen kernel's real update rate (once per "
       "rank) and use it as the simulator's CPU rate"},
      {"trace", "<file>",
       "write a Chrome trace-event / Perfetto timeline of the run"},
      {"metrics", "<file>",
       "write the final metrics snapshot as hsgd.metrics/v1 JSON"},
      {"prom", "<file>",
       "write the final metrics snapshot in Prometheus text format"},
      {"report", "<file>",
       "write a structured hsgd.run_report/v1 JSON for this run"},
  };
}

/// Parses the shared flags plus any bench-specific `extra_flags`.
/// Unknown flags and malformed command lines print the offending flag
/// and the full flag table, then exit 2; --help prints the table and
/// exits 0.
inline BenchContext ParseContext(int argc, char** argv,
                                 int default_epochs = 30,
                                 std::vector<FlagSpec> extra_flags = {}) {
  std::vector<FlagSpec> specs = SharedFlagSpecs();
  for (FlagSpec& spec : extra_flags) specs.push_back(std::move(spec));
  BenchContext ctx;
  if (argc > 0 && argv[0] != nullptr) {
    std::string name = argv[0];
    const size_t slash = name.find_last_of("/\\");
    if (slash != std::string::npos) name = name.substr(slash + 1);
    // "bench_fig12_rmse_curves" -> "fig12_rmse_curves".
    if (name.rfind("bench_", 0) == 0) name = name.substr(6);
    if (!name.empty()) ctx.bench_name = name;
  }
  Status parsed = ctx.flags.Parse(argc, argv, specs);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 FormatFlagTable(specs).c_str());
    std::exit(2);
  }
  if (ctx.flags.GetBool("help", false)) {
    std::printf("%s", FormatFlagTable(specs).c_str());
    std::exit(0);
  }
  ctx.scale_mult = ctx.flags.GetDouble("scale", 1.0);
  ctx.threads = static_cast<int>(ctx.flags.GetInt("threads", 16));
  ctx.gpus = static_cast<int>(ctx.flags.GetInt("gpus", 1));
  ctx.workers = static_cast<int>(ctx.flags.GetInt("workers", 128));
  ctx.max_epochs =
      static_cast<int>(ctx.flags.GetInt("epochs", default_epochs));
  ctx.seed = static_cast<uint64_t>(ctx.flags.GetInt("seed", 1));
  {
    auto kernel = KernelKindByName(ctx.flags.GetString("kernel", "auto"));
    HSGD_CHECK(kernel.ok()) << kernel.status().message();
    // Fail at the flag, not deep inside Session::Create, when the machine
    // or build cannot run the requested variant.
    auto resolved = ResolveKernelKind(*kernel);
    HSGD_CHECK(resolved.ok()) << resolved.status().message();
    ctx.kernel = *kernel;
  }
  ctx.calibrate = ctx.flags.GetBool("calibrate", false);
  // Observability sinks before the --data load, so the loader's io.*
  // counters land in the same registry as the training metrics.
  ctx.obs.trace_path = ctx.flags.GetString("trace", "");
  ctx.obs.metrics_path = ctx.flags.GetString("metrics", "");
  ctx.obs.prom_path = ctx.flags.GetString("prom", "");
  ctx.obs.report_path = ctx.flags.GetString("report", "");
  if (!ctx.obs.metrics_path.empty() || !ctx.obs.prom_path.empty() ||
      !ctx.obs.report_path.empty()) {
    ctx.obs.registry = std::make_shared<obs::MetricsRegistry>();
  }
  if (!ctx.obs.trace_path.empty()) {
    ctx.obs.tracer = std::make_shared<obs::Tracer>();
  }
  std::string list = ctx.flags.GetString("datasets", "");
  std::string data = ctx.flags.GetString("data", "");
  if (!data.empty()) {
    HSGD_CHECK(list.empty())
        << "--data and --datasets are mutually exclusive";
    auto format = io::FormatByName(ctx.flags.GetString("format", ""));
    HSGD_CHECK(format.ok())
        << "--data needs --format={movielens,netflix,csv}: "
        << format.status().message();
    io::LoadOptions load_options;
    load_options.metrics = ctx.obs.registry.get();
    load_options.max_bad_lines = ctx.flags.GetInt("max-bad-lines", 0);
    HSGD_CHECK(load_options.max_bad_lines >= 0)
        << "--max-bad-lines must be >= 0";
    auto ds = io::LoadDataset(data, *format, load_options,
                              ctx.flags.GetDouble("test-split", 0.1));
    HSGD_CHECK_OK(ds.status()) << "while loading --data=" << data;
    ctx.loaded = std::make_shared<Dataset>(*std::move(ds));
    ctx.data_path = data;
    // One placeholder preset so bench loops run exactly once; its Table I
    // parameters are irrelevant (the loaded dataset carries its own).
    ctx.presets.push_back(*format == io::DataFormat::kNetflix
                              ? DatasetPreset::kNetflix
                              : DatasetPreset::kMovieLens);
  } else if (ctx.flags.Has("format") || ctx.flags.Has("test-split") ||
             ctx.flags.Has("max-bad-lines")) {
    // Same strict-CLI stance as unknown flags: a data flag that silently
    // does nothing hides a mistake.
    HSGD_LOG(Fatal)
        << "--format/--test-split/--max-bad-lines only apply with --data";
  } else if (list.empty()) {
    ctx.presets.assign(std::begin(kAllPresets), std::end(kAllPresets));
  } else {
    for (const std::string& name : Split(list, ',')) {
      auto preset = PresetByName(name);
      HSGD_CHECK(preset.ok()) << "unknown dataset '" << name << "'";
      ctx.presets.push_back(*preset);
    }
  }
  return ctx;
}

/// \brief The dataset a bench iteration runs on: the --data load when
/// present, else the scaled synthetic stand-in for `preset`.
inline Dataset MakeBenchDataset(DatasetPreset preset,
                                const BenchContext& ctx) {
  if (ctx.loaded != nullptr) {
    // Hand the loaded ratings over rather than copying: a real dump can
    // be hundreds of MB, and with --data every bench runs exactly one
    // iteration, so this is the only call. (A second call would build an
    // empty dataset, which Session::Create rejects loudly.)
    return std::move(*ctx.loaded);
  }
  double scale = DefaultBenchScale(preset) * ctx.scale_mult;
  SyntheticSpec spec = ScaledPresetSpec(preset, scale);
  auto ds = GenerateSynthetic(spec, ctx.seed);
  HSGD_CHECK_OK(ds.status());
  return std::move(ds).value();
}

/// \brief Label for a bench iteration's dataset: the last non-empty
/// component of the --data path when loading real ratings (so
/// `data/ml_smoke.dat` and a Netflix directory given as `netflix/` fit the
/// tables' name column), else the preset's name.
inline std::string DatasetTitle(const BenchContext& ctx,
                                DatasetPreset preset) {
  if (ctx.loaded == nullptr) return PresetName(preset);
  const std::string& path = ctx.data_path;
  const size_t end = path.find_last_not_of('/');
  if (end == std::string::npos) return path;
  const size_t slash = path.find_last_of('/', end);
  const size_t begin = slash == std::string::npos ? 0 : slash + 1;
  return path.substr(begin, end + 1 - begin);
}

/// \brief The per-thread CPU rate (k=128 convention) of `kernel` measured
/// at rank `k` on this machine. The first call per kernel and rank
/// measures and prints one line; later calls return that rate, so every
/// session of a run at one rank plans with the same simulated CPU. Not
/// thread-safe: benches build their configs on the main thread.
inline double CalibratedRateK128(KernelKind kernel, int k) {
  static std::map<std::pair<KernelKind, int>, double> measured;
  const std::pair<KernelKind, int> key(kernel, k);
  auto it = measured.find(key);
  if (it == measured.end()) {
    const KernelCalibration cal = CalibrateKernel(kernel, k);
    std::printf("calibrated %s kernel at k=%d: %.2fM updates/s/thread\n",
                KernelKindName(cal.kernel), k, cal.updates_per_sec / 1e6);
    it = measured.emplace(key, cal.updates_per_sec_k128).first;
  }
  return it->second;
}

/// \brief Baseline TrainConfig matching the paper's experimental setup,
/// for training on `ds` (under --calibrate, the CPU rate is measured at
/// its rank).
inline TrainConfig MakeConfig(Algorithm algorithm, const BenchContext& ctx,
                              const Dataset& ds) {
  TrainConfig cfg;
  cfg.algorithm = algorithm;
  cfg.hardware.num_cpu_threads = ctx.threads;
  cfg.hardware.num_gpus = ctx.gpus;
  cfg.hardware.gpu_workers = ctx.workers;
  if (ctx.calibrate) {
    cfg.hardware.cpu_updates_per_sec_k128 =
        CalibratedRateK128(ctx.kernel, ds.params.k);
  }
  cfg.max_epochs = ctx.max_epochs;
  cfg.seed = ctx.seed;
  cfg.kernel = ctx.kernel;
  return cfg;
}

/// \brief Run a full training session (aborting on any error) and return
/// its trace + stats. The context's observability sinks (when any were
/// requested) are attached to the session.
inline TrainResult RunSession(const BenchContext& ctx, const Dataset& ds,
                              const TrainConfig& cfg) {
  auto session = Session::Create(ds, cfg);
  HSGD_CHECK_OK(session.status());
  (*session)->SetObservability(ctx.obs.Sinks());
  HSGD_CHECK_OK((*session)->RunToCompletion());
  return {(*session)->trace(), (*session)->stats()};
}

/// \brief Simulated seconds until a session of `cfg` on `ds` first
/// reaches the dataset's target RMSE (it stops there), or kSimTimeNever
/// when it does not within its epoch budget.
inline SimTime TimeToTarget(const BenchContext& ctx, const Dataset& ds,
                            TrainConfig cfg) {
  cfg.use_dataset_target = true;
  TrainResult result = RunSession(ctx, ds, cfg);
  return result.stats.sim.reached_target
             ? result.trace.TimeToReach(ds.target_rmse)
             : kSimTimeNever;
}

/// \brief Dump `content` to `path`, aborting on IO failure (bench
/// artifacts are the run's whole point; a silent short write would
/// poison CI baselines).
inline void WriteTextArtifact(const std::string& path,
                              const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  HSGD_CHECK(f != nullptr) << "cannot open artifact file '" << path << "'";
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool closed = std::fclose(f) == 0;
  HSGD_CHECK(written == content.size() && closed)
      << "short write to artifact file '" << path << "'";
}

/// \brief Write every obs artifact the command line asked for: the trace
/// timeline, the metrics snapshot (JSON and/or Prometheus text), and —
/// when `report` is given — the run report with the snapshot attached.
/// No-op for artifacts that were not requested.
inline void WriteObsArtifacts(const BenchContext& ctx,
                              obs::RunReport* report = nullptr) {
  // Benches that build no bench-specific results still honor --report:
  // fall back to a bare envelope (run config + metrics snapshot) so every
  // binary's artifact speaks hsgd.run_report/v1.
  obs::RunReport fallback(ctx.bench_name);
  if (report == nullptr && !ctx.obs.report_path.empty()) {
    fallback.config()
        .Set("scale", obs::Json::Double(ctx.scale_mult))
        .Set("threads", obs::Json::Int(ctx.threads))
        .Set("gpus", obs::Json::Int(ctx.gpus))
        .Set("workers", obs::Json::Int(ctx.workers))
        .Set("epochs", obs::Json::Int(ctx.max_epochs))
        .Set("seed", obs::Json::Int(static_cast<int64_t>(ctx.seed)));
    report = &fallback;
  }
  if (ctx.obs.registry != nullptr) {
    const obs::MetricsSnapshot snap = ctx.obs.registry->Snapshot();
    if (report != nullptr) report->AttachMetrics(snap);
    if (!ctx.obs.metrics_path.empty()) {
      WriteTextArtifact(ctx.obs.metrics_path, snap.ToJson().Dump(2) + "\n");
    }
    if (!ctx.obs.prom_path.empty()) {
      WriteTextArtifact(ctx.obs.prom_path, snap.ToPrometheus());
    }
  }
  if (ctx.obs.tracer != nullptr && !ctx.obs.trace_path.empty()) {
    HSGD_CHECK_OK(ctx.obs.tracer->WriteJson(ctx.obs.trace_path));
  }
  if (report != nullptr && !ctx.obs.report_path.empty()) {
    HSGD_CHECK_OK(report->WriteTo(ctx.obs.report_path));
  }
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

/// \brief "1.234" or "never" for time-to-target columns.
inline std::string FormatTime(SimTime t) {
  if (t >= kSimTimeNever) return "never";
  return StrFormat("%.3f", t);
}

}  // namespace hsgd::bench
