// Workload `train`: HSGD* on the Netflix-shaped synthetic preset at twice
// the default bench scale, on the paper's default simulated fleet. Whole
// fixed-budget trainings repeat, one per kSecondsPerTraining of the run's
// time; each saves a checkpoint every second epoch.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "core/session.h"
#include "probes.h"
#include "serve/snapshot.h"
#include "workloads.h"

namespace perfbench {

namespace {

using hsgd::Dataset;
using hsgd::Session;

/// Eval pool size. ParallelFor runs chunks on the calling thread too, so
/// evaluation keeps this many pool threads plus the session thread busy.
constexpr int kEvalThreads = 3;
/// Fixed epoch budget, past the epoch where every seed tried reaches the
/// dataset target; no early stop.
constexpr int kEpochs = 12;
constexpr int kSaveEvery = 2;
/// One training takes 6.5-10 s on the 4-vCPU VM the benchmark was written
/// on. The count is fixed by --seconds, not by a clock, so every run of one
/// configuration does the same work.
constexpr double kSecondsPerTraining = 6.5;
/// Set-up is timed at least this many times per run.
constexpr int kMinSetups = 3;

bool SameFactors(const hsgd::Model& a, const hsgd::Model& b) {
  const std::vector<float> ap = a.DenseP(), bp = b.DenseP();
  const std::vector<float> aq = a.DenseQ(), bq = b.DenseQ();
  return ap.size() == bp.size() && aq.size() == bq.size() &&
         std::memcmp(ap.data(), bp.data(), ap.size() * sizeof(float)) == 0 &&
         std::memcmp(aq.data(), bq.data(), aq.size() * sizeof(float)) == 0;
}

bool SameTrace(const hsgd::Trace& a, const hsgd::Trace& b) {
  if (a.points.size() != b.points.size()) return false;
  for (size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].test_rmse != b.points[i].test_rmse ||
        a.points[i].time != b.points[i].time) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RunTrain(const Options& options, Report* report) {
  if (!ThreadBudgetOk(kEvalThreads + 1, report)) {
    report->Check(false, "thread budget fits nproc");
    return;
  }
  SpanRecorder spans(options.trace, 1);
  spans.NameTrack(0, "session thread");

  const hsgd::SyntheticSpec spec =
      options.tiny
          ? hsgd::ScaledPresetSpec(hsgd::DatasetPreset::kMovieLens, 0.01)
          : hsgd::ScaledPresetSpec(
                hsgd::DatasetPreset::kNetflix,
                2.0 * hsgd::DefaultBenchScale(hsgd::DatasetPreset::kNetflix));
  auto generated = hsgd::GenerateSynthetic(spec, options.seed);
  report->Check(generated.ok(), "synthetic dataset generated");
  if (!generated.ok()) return;
  const Dataset& dataset = *generated;

  hsgd::TrainConfig config;
  config.algorithm = hsgd::Algorithm::kHsgdStar;
  config.seed = options.seed;
  config.max_epochs = kEpochs;
  config.use_dataset_target = false;
  config.eval_threads = kEvalThreads;
  const auto kernel = hsgd::ResolveKernelKind(config.kernel);
  report->Info("kernel", hsgd::KernelKindName(
                             kernel.ok() ? *kernel : hsgd::KernelKind::kAuto));
  char shape[160];
  std::snprintf(shape, sizeof(shape),
                "%d x %d, %lld train / %lld test ratings, k=%d, target %.3f",
                dataset.num_rows, dataset.num_cols,
                static_cast<long long>(dataset.train_size()),
                static_cast<long long>(dataset.test_size()),
                dataset.params.k, dataset.target_rmse);
  report->Info("dataset", shape);
  report->Info("fleet", "16 CPU threads + 1 GPU x 128 workers (simulated)");

  std::vector<double> setup_s, epoch_s, save_s;
  auto create = [&](int64_t id) -> std::unique_ptr<Session> {
    Dataset copy = dataset;
    SpanRecorder::Scope span(&spans, 0, "session.Create", "core/session", id);
    const int64_t t0 = NowNs();
    auto created = Session::Create(std::move(copy), config);
    setup_s.push_back(Seconds(t0, NowNs()));
    report->Attempt();
    if (!created.ok()) {
      report->Fail();
      report->Check(false, "Session::Create: " + created.status().ToString());
      return nullptr;
    }
    return *std::move(created);
  };

  const std::string ckpt_path = options.out_dir + "/train.ckpt";
  std::unique_ptr<Session> session;
  hsgd::Trace first_trace;
  int64_t nnz = 0;
  double work_s = 0.0;
  int sessions = 0;
  const int64_t start = NowNs();
  const int trainings = std::max(
      1, static_cast<int>(std::lround(options.seconds / kSecondsPerTraining)));
  while (sessions < trainings) {
    session.reset();
    session = create(sessions);
    if (session == nullptr) return;
    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
      {
        SpanRecorder::Scope span(&spans, 0, "session.RunEpoch",
                                 "core/session", epoch);
        const int64_t t0 = NowNs();
        auto point = session->RunEpoch();
        epoch_s.push_back(Seconds(t0, NowNs()));
        report->Attempt();
        if (!point.ok()) {
          report->Fail();
          report->Check(false, "RunEpoch: " + point.status().ToString());
          return;
        }
      }
      if (epoch % kSaveEvery == 0) {
        SpanRecorder::Scope span(&spans, 0, "session.SaveCheckpoint",
                                 "core/checkpoint", epoch);
        const int64_t t0 = NowNs();
        const hsgd::Status saved = session->SaveCheckpoint(ckpt_path);
        save_s.push_back(Seconds(t0, NowNs()));
        report->Attempt();
        if (!saved.ok()) {
          report->Fail();
          report->Check(false, "SaveCheckpoint: " + saved.ToString());
          return;
        }
      }
    }
    nnz += session->stats().sim.nnz_processed;
    if (sessions == 0) {
      first_trace = session->trace();
    } else {
      report->Check(SameTrace(first_trace, session->trace()),
                    "repeated training with one seed is bit-identical");
    }
    ++sessions;
  }
  const double measured_s = Seconds(start, NowNs());
  for (double s : epoch_s) work_s += s;
  for (double s : save_s) work_s += s;
  while (static_cast<int>(setup_s.size()) < kMinSetups) {
    create(static_cast<int64_t>(setup_s.size()));
  }

  // ---- Output checks --------------------------------------------------
  const hsgd::TracePoint& last = session->trace().points.back();
  report->Check(std::isfinite(last.test_rmse) &&
                    last.test_rmse <= dataset.target_rmse,
                "final test RMSE finite and within the dataset target");
  {
    auto restored = Session::Restore(ckpt_path, dataset);
    report->Check(restored.ok() && SameFactors((*restored)->model(),
                                               session->model()),
                  "last checkpoint restores to bit-identical factors");
  }

  // ---- End-to-end ------------------------------------------------------
  report->EndToEnd("setup_s", Median(setup_s),
                   "Session::Create, median of " +
                       std::to_string(setup_s.size()));
  report->EndToEnd("throughput_per_s", static_cast<double>(nnz) / work_s,
                   "SGD updates / wall s of RunEpoch + SaveCheckpoint");
  std::vector<double> epoch_ms;
  for (double s : epoch_s) epoch_ms.push_back(s * 1e3);
  ReportTail(report, true, "latency_p50_ms", epoch_ms, 50);
  ReportTail(report, true, "latency_p99_ms", epoch_ms, 99);
  report->Info("sessions", std::to_string(sessions) + " x " +
                               std::to_string(kEpochs) + " epochs");

  // ---- Per-layer: timed calls and exact counts --------------------------
  const hsgd::TrainStats stats = session->stats();
  report->Layer("session.epoch_s", Median(epoch_s), "median RunEpoch");
  report->Layer("ckpt.save_s", Median(save_s), "median SaveCheckpoint");
  report->Layer("ckpt.bytes",
                static_cast<double>(std::filesystem::file_size(ckpt_path)));
  report->Layer("sched.block_tasks", static_cast<double>(stats.sim.block_tasks),
                "one training");
  report->Layer("sched.steals",
                static_cast<double>(stats.sim.stolen_by_gpus +
                                    stats.sim.stolen_by_cpus),
                "one training");
  report->Layer("sim.alpha", stats.sim.alpha);
  report->Layer("sim.update_rate_cv", stats.sim.update_rate_cv);
  report->Layer("sim.epoch_s", stats.sim.seconds / session->epochs_run());
  const double to_target = session->trace().TimeToReach(dataset.target_rmse);
  report->Layer("sim.time_to_target_s",
                to_target < hsgd::kSimTimeNever ? to_target : 0.0,
                "the paper's simulated testbed; deterministic per seed");
  report->Layer("quality.test_rmse", last.test_rmse, "last epoch");

  // ---- Per-layer: standalone probes after the measured phase ------------
  if (options.trace) {
    FinishTrace(spans, options, measured_s, report);
    ProbeEval(session->model(), dataset, kEvalThreads, session->kernel(),
              report);
    report->Layer("session.sweep_s",
                  report->Value("session.epoch_s") -
                      report->Value("session.eval_s"),
                  "epoch - eval");
    ProbeSgdKernels(session->model(), dataset.train, dataset.params,
                    session->kernel(), report);
    ProbeSnapshot(
        [&] {
          auto snap = hsgd::serve::FactorSnapshot::FromSession(*session, 1);
          return snap.ok() ? *snap : nullptr;
        },
        report);
    auto snapshot = hsgd::serve::FactorSnapshot::FromSession(*session, 1);
    if (snapshot.ok()) {
      ProbeScoring(**snapshot, session->kernel(), report);
      hsgd::serve::SnapshotHolder holder(*snapshot);
      ProbeAcquire([&] { return holder.Acquire(); }, report);
    }
  }
  session.reset();
  report->EndToEnd("peak_rss_mb", PeakRssMb());
  std::filesystem::remove(ckpt_path);
}

}  // namespace perfbench
