// Fault-recovery bench: runs the scripted fault scenario matrix against
// a fault-free baseline and reports convergence + recovery accounting as
// BENCH_fault.json (the chaos artifact CI uploads).
//
// Scenarios, per dataset:
//   baseline    fault subsystem never attached
//   zerofault   empty plan attached — must be BIT-IDENTICAL to baseline
//   crash50     GPU 0 dies halfway through the middle epoch
//   straggler   CPU 0 wedges to 4x (below the watchdog factor) for good
//   flakylink   6 PCIe transfers on GPU 0's link fail mid-epoch
//   killresume  crash50's plan, with a checkpoint saved every 2nd epoch
//               from the bench's own loop; the run is abandoned halfway,
//               restored from its last checkpoint, the plan re-attached,
//               and driven to the same epoch budget
//
// The three acceptance gates (exit 1 when violated):
//   - zerofault reproduces baseline exactly (trace, factors, clock);
//   - crash50's final test RMSE is within 2% of baseline's;
//   - killresume reproduces crash50 exactly: the kill and restore change
//     nothing the run computes.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/checkpoint.h"
#include "fault/fault_plan.h"

namespace hsgd::bench {
namespace {

struct ScenarioResult {
  std::string name;
  std::string plan;
  Status status = Status::Ok();
  Trace trace;
  TrainStats stats;
  FaultStats fault;
  std::vector<float> p, q;
  int epochs_run = 0;
};

uint64_t Fnv1a(const std::vector<float>& values, uint64_t hash) {
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size() * sizeof(float); ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ull;
  }
  return hash;
}

uint64_t FactorChecksum(const ScenarioResult& r) {
  return Fnv1a(r.q, Fnv1a(r.p, 14695981039346656037ull));
}

void Capture(Session* session, ScenarioResult* out) {
  out->trace = session->trace();
  out->stats = session->stats();
  out->fault = session->fault_stats();
  out->p = session->model().DenseP();
  out->q = session->model().DenseQ();
  out->epochs_run = session->epochs_run();
}

/// One full run. `plan_text == nullptr` leaves the fault subsystem
/// entirely unattached (the disabled baseline).
ScenarioResult RunScenario(const std::string& name, const Dataset& ds,
                           const TrainConfig& cfg, const char* plan_text,
                           const Observability& sinks) {
  ScenarioResult result;
  result.name = name;
  result.plan = plan_text == nullptr ? "" : plan_text;
  auto session = Session::Create(ds, cfg);
  HSGD_CHECK_OK(session.status());
  (*session)->SetObservability(sinks);
  if (plan_text != nullptr) {
    auto plan = FaultPlan::Parse(plan_text);
    HSGD_CHECK_OK(plan.status());
    HSGD_CHECK_OK((*session)->SetFaultPlan(*plan));
  }
  result.status = (*session)->RunToCompletion();
  HSGD_CHECK_OK(result.status) << "scenario " << name;
  Capture(session->get(), &result);
  return result;
}

/// Run a faulted session that saves a checkpoint every 2nd epoch (or at
/// the kill point when it stops before epoch 2), abandon it halfway,
/// restore from its last checkpoint, re-attach the plan (runtime fault
/// state is deliberately not checkpointed), and drive to the full budget.
ScenarioResult RunKillResume(const Dataset& ds, const TrainConfig& cfg,
                             const std::string& plan_text,
                             const Observability& sinks) {
  ScenarioResult result;
  result.name = "killresume";
  result.plan = plan_text;
  const std::string path = "bench_fault_recovery_killresume.ckpt";
  std::remove(path.c_str());

  auto plan = FaultPlan::Parse(plan_text);
  HSGD_CHECK_OK(plan.status());
  {
    auto session = Session::Create(ds, cfg);
    HSGD_CHECK_OK(session.status());
    (*session)->SetObservability(sinks);
    HSGD_CHECK_OK((*session)->SetFaultPlan(*plan));
    const int stop_after = std::max(2, cfg.max_epochs / 2);
    bool saved = false;
    while (!(*session)->Done() &&
           (*session)->epochs_run() < stop_after) {
      HSGD_CHECK_OK((*session)->RunEpoch().status());
      if ((*session)->epochs_run() % 2 == 0) {
        HSGD_CHECK_OK((*session)->SaveCheckpoint(path));
        saved = true;
      }
    }
    // A budget that ends before the first even epoch leaves nothing to
    // resume from, so save at the kill point instead.
    if (!saved) HSGD_CHECK_OK((*session)->SaveCheckpoint(path));
    // "kill -9": the session object is simply dropped here.
  }
  auto resumed = Session::Restore(path, ds);
  HSGD_CHECK_OK(resumed.status());
  // Runtime-attached state (fault plan, observability) is deliberately
  // not checkpointed; both come back via fresh attach.
  (*resumed)->SetObservability(sinks);
  HSGD_CHECK_OK((*resumed)->SetFaultPlan(*plan));
  result.status = (*resumed)->RunToCompletion();
  HSGD_CHECK_OK(result.status) << "scenario killresume (post-restore)";
  Capture(resumed->get(), &result);
  std::remove(path.c_str());
  return result;
}

bool BitIdentical(const ScenarioResult& a, const ScenarioResult& b) {
  if (a.trace.points.size() != b.trace.points.size()) return false;
  for (size_t i = 0; i < a.trace.points.size(); ++i) {
    const TracePoint& x = a.trace.points[i];
    const TracePoint& y = b.trace.points[i];
    if (x.epoch != y.epoch || x.time != y.time ||
        x.test_rmse != y.test_rmse || x.train_rmse != y.train_rmse) {
      return false;
    }
  }
  return a.p == b.p && a.q == b.q &&
         a.stats.sim.seconds == b.stats.sim.seconds;
}

double FinalRmse(const ScenarioResult& r) {
  return r.trace.points.empty() ? 0.0 : r.trace.points.back().test_rmse;
}

void PrintScenario(const ScenarioResult& r, double baseline_rmse) {
  std::printf(
      "%-10s  sim %8.4fs  rmse %.6f (%+.3f%%)  lost %d  revoked %lld  "
      "requeued %lld  dropped %lld  xfer %lld%s\n",
      r.name.c_str(), r.stats.sim.seconds, FinalRmse(r),
      baseline_rmse > 0.0 ? (FinalRmse(r) / baseline_rmse - 1.0) * 100.0
                          : 0.0,
      r.fault.devices_lost, static_cast<long long>(r.fault.leases_revoked),
      static_cast<long long>(r.fault.blocks_requeued),
      static_cast<long long>(r.fault.blocks_lost),
      static_cast<long long>(r.fault.transfer_faults),
      r.fault.degraded ? "  [degraded]" : "");
}

obs::Json JsonScenario(const ScenarioResult& r, double baseline_rmse) {
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(FactorChecksum(r)));
  return obs::Json::Object()
      .Set("name", obs::Json::Str(r.name))
      .Set("plan", obs::Json::Str(r.plan))
      .Set("epochs_run", obs::Json::Int(r.epochs_run))
      .Set("sim_seconds", obs::Json::Double(r.stats.sim.seconds))
      .Set("final_test_rmse", obs::Json::Double(FinalRmse(r)))
      .Set("rmse_ratio_vs_baseline",
           obs::Json::Double(baseline_rmse > 0.0
                                 ? FinalRmse(r) / baseline_rmse
                                 : 0.0))
      .Set("devices_lost", obs::Json::Int(r.fault.devices_lost))
      .Set("leases_revoked", obs::Json::Int(r.fault.leases_revoked))
      .Set("blocks_requeued", obs::Json::Int(r.fault.blocks_requeued))
      .Set("blocks_lost", obs::Json::Int(r.fault.blocks_lost))
      .Set("transfer_faults", obs::Json::Int(r.fault.transfer_faults))
      .Set("degraded", obs::Json::Bool(r.fault.degraded))
      .Set("factor_checksum", obs::Json::Str(checksum));
}

}  // namespace
}  // namespace hsgd::bench

int main(int argc, char** argv) {
  using namespace hsgd;
  using namespace hsgd::bench;

  BenchContext ctx = ParseContext(
      argc, argv, /*default_epochs=*/8,
      {{"out", "<path>",
        "JSON report path (default BENCH_fault.json)"}});
  const std::string out_path =
      ctx.flags.GetString("out", "BENCH_fault.json");

  const int mid_epoch = std::max(1, ctx.max_epochs / 2);
  const int late_epoch = std::min(2, ctx.max_epochs);
  const std::string crash_plan =
      StrFormat("crash:gpu0@e%d+0.5", mid_epoch);
  const std::string straggler_plan =
      StrFormat("slow:cpu0@e%d+0.25x4", late_epoch);
  const std::string link_plan =
      StrFormat("link:gpu0@e%d+0.25n6", late_epoch);

  obs::RunReport report("fault_recovery");
  report.config()
      .Set("epochs", obs::Json::Int(ctx.max_epochs))
      .Set("seed", obs::Json::Int(static_cast<int64_t>(ctx.seed)))
      .Set("scale", obs::Json::Double(ctx.scale_mult));

  bool all_accepted = true;
  for (size_t d = 0; d < ctx.presets.size(); ++d) {
    const DatasetPreset preset = ctx.presets[d];
    const std::string title = DatasetTitle(ctx, preset);
    // One load/generation per dataset; Session copies it, so every
    // scenario trains on identical bytes.
    const Dataset ds = MakeBenchDataset(preset, ctx);
    TrainConfig cfg = MakeConfig(Algorithm::kHsgdStar, ctx, ds);
    cfg.max_epochs = ctx.max_epochs;
    cfg.use_dataset_target = false;  // all scenarios run the full budget

    PrintHeader("fault recovery: " + title);
    std::vector<ScenarioResult> results;
    const Observability sinks = ctx.obs.Sinks();
    results.push_back(RunScenario("baseline", ds, cfg, nullptr, sinks));
    const double baseline_rmse = FinalRmse(results.front());
    results.push_back(RunScenario("zerofault", ds, cfg, "", sinks));
    results.push_back(
        RunScenario("crash50", ds, cfg, crash_plan.c_str(), sinks));
    results.push_back(
        RunScenario("straggler", ds, cfg, straggler_plan.c_str(), sinks));
    results.push_back(
        RunScenario("flakylink", ds, cfg, link_plan.c_str(), sinks));
    results.push_back(RunKillResume(ds, cfg, crash_plan, sinks));
    for (const ScenarioResult& r : results) {
      PrintScenario(r, baseline_rmse);
    }

    // Acceptance gates.
    const bool zerofault_identical =
        BitIdentical(results[0], results[1]);
    const double crash_ratio =
        baseline_rmse > 0.0 ? FinalRmse(results[2]) / baseline_rmse : 0.0;
    const bool crash_converged = std::fabs(crash_ratio - 1.0) <= 0.02;
    const bool killresume_identical = BitIdentical(results[2], results[5]);
    const bool accepted =
        zerofault_identical && crash_converged && killresume_identical;
    all_accepted = all_accepted && accepted;
    std::printf(
        "zerofault bitwise == baseline: %s;  crash50 rmse ratio %.5f "
        "(|ratio-1| <= 0.02): %s;  killresume bitwise == crash50: %s\n",
        zerofault_identical ? "yes" : "NO",
        crash_ratio, crash_converged ? "ok" : "VIOLATED",
        killresume_identical ? "yes" : "NO");

    obs::Json scenarios = obs::Json::Array();
    for (const ScenarioResult& r : results) {
      scenarios.Push(JsonScenario(r, baseline_rmse));
    }
    report.results().Push(
        obs::Json::Object()
            .Set("dataset", obs::Json::Str(title))
            .Set("scenarios", std::move(scenarios))
            .Set("zerofault_bitwise_identical",
                 obs::Json::Bool(zerofault_identical))
            .Set("crash50_rmse_ratio", obs::Json::Double(crash_ratio))
            .Set("killresume_bitwise_identical",
                 obs::Json::Bool(killresume_identical))
            .Set("accepted", obs::Json::Bool(accepted)));
  }
  report.config().Set("accepted", obs::Json::Bool(all_accepted));
  // Attaches the metrics snapshot (when a registry rode along) before the
  // report lands at --out, so both copies carry it.
  WriteObsArtifacts(ctx, &report);
  HSGD_CHECK_OK(report.WriteTo(out_path));

  std::printf("\nwrote %s\n", out_path.c_str());
  if (!all_accepted) {
    std::fprintf(stderr, "FAILED: fault-recovery acceptance violated\n");
    return 1;
  }
  return 0;
}
