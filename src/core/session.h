// Session: the stateful training engine behind heterogeneous SGD matrix
// factorization, and the only way to train. A Session keeps the whole
// execution — scheduler, simulated device fleet, virtual clock, RNG
// streams, factor model — alive across epochs, so callers can:
//
//   - drive training stepwise (`RunEpoch()` advances one simulated epoch
//     and returns its TracePoint, so the caller's loop sees each epoch),
//   - inspect mid-run state (`Done()`, `stats()`, `model()`, `trace()`),
//   - persist and resume long runs (`SaveCheckpoint()` / `Restore()`,
//     bit-identical to an uninterrupted run — see core/checkpoint.h),
//   - serve the trained factors (serve::FactorSnapshot copies `model()`).
//
// Real SGD arithmetic updates the factors (honest RMSE curves); a
// discrete-event loop over simulated CPU threads and GPUs decides when
// each block runs and what the virtual clock reads. The loop records the
// blocks each epoch commits, and SgdUpdateBlocks then applies them on
// real threads, running blocks that share no row or column stratum at
// the same time. Same seed + same config => bit-identical traces,
// whether the epochs were run in one process or across a checkpoint
// boundary, and at any `eval_threads`.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/kernels/kernels.h"
#include "core/model.h"
#include "core/types.h"
#include "fault/fault_plan.h"
#include "sched/blocked_matrix.h"
#include "sched/scheduler.h"
#include "sim/cpu_device.h"
#include "sim/device_spec.h"
#include "sim/gpu_device.h"
#include "sim/pcie_link.h"
#include "sim/profiler.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hsgd {

class FaultInjector;  // fault/fault_injector.h

namespace obs {
class MetricsRegistry;  // obs/metrics.h
class Tracer;           // obs/trace.h
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

/// Borrowed observability sinks, attached at runtime via
/// Session::SetObservability. Like fault plans they are runtime state —
/// never checkpointed, re-attach after Restore — and strictly passive:
/// attaching them (or not) leaves the simulation bit-identical; they only
/// record what happened.
struct Observability {
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* trace = nullptr;
};

enum class Algorithm {
  kCpuOnly = 0,
  kGpuOnly = 1,
  kHsgd = 2,
  kHsgdStar = 3,
};

const char* AlgorithmName(Algorithm algorithm);

/// The simulated fleet: what the paper's experiments vary. The rest of
/// each device (GPU per-worker rate, launch overhead, memory bandwidth,
/// PCIe link, CPU warm-up) is the paper's fixed testbed, written once as
/// the defaults in sim/device_spec.h.
struct HardwareConfig {
  int num_cpu_threads = 16;
  int num_gpus = 1;
  /// GPU SIMT width, the paper's W (Fig. 10).
  int gpu_workers = GpuDeviceSpec{}.parallel_workers;
  /// Per-thread CPU update rate at k=128 (points/second). The testbed's
  /// rate by default; a caller that measured this machine's kernel
  /// (core/kernels/calibrator.h) sets that rate here instead.
  double cpu_updates_per_sec_k128 = CpuDeviceSpec{}.updates_per_sec_k128;
  /// Lognormal sigma of the per-run device speed draw (run-to-run
  /// hardware variability; 0 disables it). The cost model always plans
  /// with nominal speeds — correcting the resulting misprediction is the
  /// dynamic phase's job (Table III).
  double speed_variability = 0.25;
};

/// Counters the fault machinery accumulates over a session's lifetime.
/// The recovery policy is fixed: a block lease expires at 8x its healthy
/// span and its block is requeued on a survivor; only the loss of every
/// worker fails the run. The lease watchdog arms only when a block runs
/// slower than a healthy device could, so a fault-free run never pays
/// anything.
struct FaultStats {
  int devices_lost = 0;
  int64_t leases_revoked = 0;
  int64_t blocks_requeued = 0;
  /// Blocks dropped after failing on two different holders (skipped for
  /// the rest of their epoch; SGD tolerates the missing updates).
  int64_t blocks_lost = 0;
  int64_t transfer_faults = 0;
  /// True once any fault fired (the run is no longer fault-free).
  bool degraded = false;
};

/// What a session trains and on which simulated fleet; every checkpoint
/// stores it. It schedules no saves: the caller's epoch loop calls
/// Session::SaveCheckpoint when it wants one. Scripted faults are
/// attached at runtime via Session::SetFaultPlan, not configured here.
struct TrainConfig {
  Algorithm algorithm = Algorithm::kHsgdStar;
  HardwareConfig hardware;
  int max_epochs = 30;
  uint64_t seed = 1;
  /// Stop as soon as test RMSE reaches the dataset's target (vs always
  /// running the full epoch budget).
  bool use_dataset_target = true;
  CostModelKind cost_model = CostModelKind::kOurs;
  /// HSGD*'s dynamic work-stealing phase (off = HSGD*-M).
  bool dynamic_scheduling = true;
  /// Real (not simulated) threads of the session's pool, capped at 16.
  /// The pool and the calling thread apply each epoch's SGD blocks and
  /// evaluate test RMSE; factors, traces and stats are bit-identical for
  /// any value.
  int eval_threads = 8;
  /// Compute-kernel variant for the real SGD/RMSE arithmetic. kAuto is
  /// resolved to the best usable variant at Create time and the RESOLVED
  /// kind is what `config()` reports and checkpoints persist — so a
  /// resumed run replays the same numerics bit-for-bit, and restoring on
  /// a machine that lacks the recorded kernel fails loudly instead of
  /// silently diverging.
  KernelKind kernel = KernelKind::kAuto;
};

/// The ranges every TrainConfig must lie in: max_epochs in [1, 2^24],
/// eval_threads in [1, 2^20]; at most 2^20 CPU threads and 4,096 GPUs
/// (neither negative) and 1 to 2^20 GPU workers; the CPU rate finite and
/// > 0; speed_variability finite and >= 0.
/// Session::Create checks a new config with it and the checkpoint reader
/// a stored one, so every session that trains and saves also restores.
Status ValidateConfigRanges(const TrainConfig& config);

struct TracePoint {
  int epoch = 0;
  SimTime time = 0.0;
  /// RMSE over the test split after the epoch's updates; the stop rule
  /// and Trace::TimeToReach read it. With an empty test split it is a
  /// copy of train_rmse, the sweep loss below.
  double test_rmse = 0.0;
  /// The SGD sweep's own loss: root mean squared error over the ratings
  /// the epoch swept, each taken just before its update (SgdUpdateBlocks'
  /// return over the swept count), so it trails the epoch's final
  /// factors. A fault-free full epoch sweeps every training rating, an
  /// incremental epoch its dirty blocks; blocks a fault dropped are not
  /// swept. NaN when the epoch swept no rating.
  double train_rmse = 0.0;
};

struct Trace {
  std::vector<TracePoint> points;

  /// Simulated time of the first epoch whose test RMSE <= `rmse`.
  /// Returns kSimTimeNever when no epoch got there — in particular for an
  /// empty trace (no epochs run yet), which is a legal query, not an
  /// error. Debug builds additionally assert the points are
  /// epoch-monotone (strictly increasing epoch numbers).
  SimTime TimeToReach(double rmse) const;
};

/// Virtual-clock statistics: every field here is reproducible — same
/// seed + same config yields the same values, whether the epochs ran in
/// one process or across a checkpoint/restore boundary. Regression
/// tests and acceptance checks may compare these exactly.
struct SimStats {
  bool reached_target = false;
  SimTime seconds = 0.0;
  /// GPU share of the work: the cost model's split for HSGD*, the
  /// measured share otherwise.
  double alpha = 0.0;
  int64_t stolen_by_gpus = 0;
  int64_t stolen_by_cpus = 0;
  /// Coefficient of variation of per-block processing times — the
  /// Example 3 imbalance measure (high under uniform division with
  /// heterogeneous devices, low under HSGD*'s equal-time blocks).
  double update_rate_cv = 0.0;
  int64_t block_tasks = 0;
  /// Total SGD updates applied (one per rating visit), across full and
  /// incremental epochs — the equal-update-count axis for comparing
  /// online refresh against full retrain.
  int64_t nnz_processed = 0;
};

/// What a session reports about its run. Only virtual-clock stats live
/// here, so a resumed session's stats equal the uninterrupted run's;
/// wall time is the caller's to measure.
struct TrainStats {
  SimStats sim;
};

struct TrainResult {
  Trace trace;
  TrainStats stats;
};

struct DatasetFingerprint;  // core/checkpoint.h
class CheckpointReader;     // core/checkpoint.h

class Session {
 public:
  /// Validates `config` against `dataset` (Status on any inconsistency:
  /// empty data, non-positive rank, no workers for the chosen algorithm,
  /// too few columns for the HSGD* stripe layout, ...), then builds the
  /// full execution state: profiler-fit cost model and nonuniform grid
  /// for HSGD*, blocked matrix, scheduler, device fleet, factor model.
  /// The dataset is taken by value and owned by the session.
  static StatusOr<std::unique_ptr<Session>> Create(Dataset dataset,
                                                   TrainConfig config);

  /// Rebuilds a session from a checkpoint written by SaveCheckpoint; the
  /// TrainConfig is restored from the checkpoint. `dataset` is the data
  /// the checkpointed session was CREATED with, and `growth` the batches
  /// it appended since (AppendRatings), in their original order. Create
  /// cuts the block grid from the dataset it is handed, so a grown
  /// session cannot be rebuilt from its grown data: that yields
  /// different stratum boundaries than warm-grid-plus-trailing-growth,
  /// and later appends would diverge. Restore instead creates over
  /// `dataset`, replays `growth` (reproducing the trailing-stratum
  /// growth and block-tail bucketing bit for bit), verifies the result
  /// against the checkpoint's dataset fingerprint — shape, both splits'
  /// ratings, the SGD hyper-parameters and the early-stop target
  /// (InvalidArgument on a mismatch) — and installs the checkpoint: the
  /// state read first, and then the factor rows, read straight into the
  /// new session's model from the same open file, with no staging copy.
  /// A file too short for its factor rows is refused before Create. The
  /// replayed growth's dirty marks are cleared: SaveCheckpoint refuses to
  /// save untrained appends, so every replayed rating is already trained
  /// into the installed factors. The resumed session reproduces the
  /// uninterrupted run's remaining TracePoints and final TrainStats
  /// bit-for-bit.
  static StatusOr<std::unique_ptr<Session>> Restore(
      const std::string& path, Dataset dataset,
      const std::vector<Ratings>& growth = {});

  ~Session();

  /// Advance one simulated epoch: schedule and run every block through
  /// the device fleet in virtual time, apply the real SGD updates (their
  /// pre-update errors give train_rmse), then evaluate test RMSE at the
  /// epoch barrier. Returns the epoch's TracePoint;
  /// the session's trace and stats already include it, and the barrier
  /// is free again, so the caller may VisitQuiesced right away.
  /// FailedPrecondition once Done().
  StatusOr<TracePoint> RunEpoch();

  /// Drive RunEpoch until Done().
  Status RunToCompletion();

  // ---- Online training (stream ingestion) -------------------------------
  //
  // The append path grows the session in place: new dense ids extend the
  // model's factor storage (cold rows drawn from the running mean-rating
  // init range), the grid's trailing strata absorb the new index space
  // (block count — and therefore the scheduler — is invariant), and the
  // touched blocks are marked dirty for the next incremental epoch.
  // Thread safety: appends, epochs, and VisitQuiesced all serialize on
  // the epoch barrier, so a snapshot can never observe factors mid-write.

  /// Append ratings (dense ids, as produced by io::IdMap::Assign) to the
  /// training set. Ids beyond the current dimensions grow the model and
  /// grid; ratings land at their block's tail in arrival order. Blocks
  /// while an epoch is in flight on another thread. InvalidArgument on an
  /// id outside [0, INT32_MAX), whose extent would not fit an int32_t
  /// (nothing is mutated).
  Status AppendRatings(const Ratings& ratings);

  /// Advance one incremental epoch over ONLY the blocks dirtied by
  /// AppendRatings since the last epoch. Counts as a normal epoch: it
  /// consumes epoch budget, pushes a TracePoint (test RMSE over the test
  /// split, train_rmse over the dirty blocks' ratings it swept), and
  /// decays the learning rate on the shared schedule. FailedPrecondition
  /// when nothing is pending or Done().
  ///
  /// `side_task`, when set, runs exactly once per call, whatever the call
  /// returns: it is submitted to the eval pool first, so it runs on a
  /// pool thread beside the whole epoch (the event loop and the sweep,
  /// whose dependency chain leaves lanes idle), and the call waits for it
  /// before returning on every path. It must not touch the session, and
  /// it changes no bit of the epoch.
  StatusOr<TracePoint> RunIncrementalEpoch(
      std::function<void()> side_task = nullptr);

  /// Run `fn` while the session is guaranteed quiescent (no epoch in
  /// flight, no append mutating the factors). Never blocks: if training
  /// holds the barrier, fails fast with FailedPrecondition instead —
  /// callers retry at the next epoch boundary. This is the gate that
  /// makes serve::FactorSnapshot::FromSession torn-read-safe.
  ///
  /// Starvation hazard: the barrier is a plain std::mutex, which does not
  /// hand itself fairly to a RunEpoch/AppendRatings blocked on it. A
  /// caller that retries back to back can keep retaking it and stall
  /// training; pause briefly after each successful visit.
  Status VisitQuiesced(const std::function<Status()>& fn) const;

  /// Blocks dirtied by appends and not yet swept by an epoch.
  int pending_dirty_blocks() const;
  /// Appended ratings not yet covered by any epoch (staleness numerator).
  int64_t pending_nnz() const { return pending_nnz_; }
  /// Ratings appended over the session's lifetime.
  int64_t appended_nnz() const { return appended_nnz_; }

  /// True when the epoch budget is exhausted or (under
  /// config.use_dataset_target) the dataset's target RMSE was reached.
  bool Done() const;

  /// Completed epochs so far (also the `epoch` of the latest TracePoint).
  int epochs_run() const { return epochs_run_; }
  const Trace& trace() const { return trace_; }
  /// Aggregate statistics over the epochs run so far; callable mid-run.
  TrainStats stats() const;
  /// The live factor model (updated in place every epoch). Valid for the
  /// session's lifetime; serve::FactorSnapshot::FromModel (or FromSession)
  /// copies it for top-k serving.
  const Model& model() const { return *model_; }
  const Dataset& dataset() const { return dataset_; }
  /// Note: `config().kernel` is the resolved concrete kind (never kAuto),
  /// so the stored config reproduces this session without re-resolution.
  const TrainConfig& config() const { return config_; }
  /// The resolved compute-kernel variant this session runs with.
  KernelKind kernel() const { return config_.kernel; }

  /// Attach a scripted fault plan (validated against this session's
  /// fleet). Replaces any previous plan; un-fired specs of the old plan
  /// are forgotten. Like observability sinks, plans are runtime state:
  /// they are NOT serialized into checkpoints — re-attach after Restore
  /// (specs whose trigger point is already past fire at the next epoch
  /// start). An empty (or never-firing) plan leaves the run bit-identical
  /// to a session with no plan at all.
  Status SetFaultPlan(const FaultPlan& plan);

  /// Fault-machinery counters accumulated so far (all zero, with
  /// degraded == false, for a fault-free run).
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// Attach metrics/trace sinks (either pointer may be null). Replaces
  /// any previous attachment; pass {} to detach. Sinks are borrowed —
  /// callers keep them alive while attached — and passive: a session
  /// with sinks attached produces bit-identical training results to one
  /// without. Not checkpointed; re-attach after Restore.
  void SetObservability(const Observability& obs);

  /// True when the loss of every worker permanently failed the run.
  /// Done() reports true and RunEpoch refuses with FailedPrecondition.
  bool failed() const { return failed_; }

  /// Serialize the complete resumable state (config, dataset
  /// fingerprint, factor matrices, virtual clock, RNG streams, device
  /// pipeline state, trace, stat accumulators) to `path`. The factor rows
  /// go from the strided model to the file through one write buffer,
  /// with no staging copy. The dataset is hashed for the fingerprint at
  /// the first save and again only after an append. Written via a temp
  /// file that is fsynced, renamed over `path`, and then `path`'s
  /// directory fsynced: a crash mid-write never corrupts an existing
  /// checkpoint, and a save that returned OK survives a power loss. A
  /// failed write returns its Status and nothing retries it. The session
  /// never saves on its own: the caller's epoch loop decides when. Takes
  /// the epoch barrier, so a save from another thread waits for the
  /// epoch or append in flight; never call it from inside a
  /// VisitQuiesced callback, which already holds the barrier.
  /// FailedPrecondition while appended ratings are not yet trained
  /// (pending_nnz() != 0): Restore replays growth as already trained, so
  /// a save must be ingest-quiescent — run RunIncrementalEpoch first.
  /// `wal_seq` records the WAL high-water mark applied to this session —
  /// the durability contract between the checkpoint and stream/wal.h's
  /// log. Recovery reads it back with ReadCheckpoint (the session
  /// itself has no WAL state); the growth RNG and exact rating moments
  /// ARE session state and round-trip with every save, so appends after
  /// a restore stay bit-identical to the uninterrupted run.
  Status SaveCheckpoint(const std::string& path, uint64_t wal_seq = 0) const;

 private:
  /// A simulated worker: one CPU thread (cpu != nullptr) or one GPU
  /// (gpu != nullptr). Each CPU worker carries its own CpuDevice so
  /// per-thread health (straggler faults) stays per-thread. The device's
  /// health is the worker's liveness: a device killed by the injector or
  /// the watchdog stays dead for the session's lifetime, and a restored
  /// session rebuilds its devices, so everyone starts alive.
  struct Worker {
    WorkerInfo info;
    GpuDevice* gpu = nullptr;
    CpuDevice* cpu = nullptr;

    const DeviceHealth& health() const {
      return gpu != nullptr ? gpu->health() : cpu->health();
    }
    void set_health(const DeviceHealth& health) {
      if (gpu != nullptr) {
        gpu->set_health(health);
      } else {
        cpu->set_health(health);
      }
    }
  };

  Session(Dataset dataset, TrainConfig config);

  /// Deterministic construction of the execution state from (dataset,
  /// config): device speed draw, cost model + grid, blocked matrix,
  /// scheduler, workers, model init. Shared by Create and Restore — a
  /// restored session first rebuilds exactly what Create built, then
  /// overwrites the evolving state from the checkpoint.
  Status Init();
  /// Overwrites the evolving state with `file`'s, reading the factor
  /// rows straight into model_.
  Status InstallCheckpoint(CheckpointReader* file);

  /// Shared epoch body; the caller holds the epoch barrier. `subset`
  /// selects the pending blocks (null = all, the classic RunEpoch).
  StatusOr<TracePoint> RunEpochImpl(const std::vector<int>* subset);

  /// Pre-resolved registry handles, filled in SetObservability so the
  /// event loop pays one null check per record — no name lookups on the
  /// hot path. All null while no registry is attached (the obs::Add /
  /// obs::Set / obs::Observe helpers are null-safe no-ops).
  struct MetricsHandles {
    obs::Counter* epochs = nullptr;
    obs::Counter* blocks = nullptr;
    obs::Counter* nnz = nullptr;
    obs::Counter* steals_by_gpu = nullptr;
    obs::Counter* steals_by_cpu = nullptr;
    obs::Counter* devices_lost = nullptr;
    obs::Counter* leases_revoked = nullptr;
    obs::Counter* blocks_requeued = nullptr;
    obs::Counter* blocks_lost = nullptr;
    obs::Counter* transfer_faults = nullptr;
    obs::Counter* ckpt_writes = nullptr;
    obs::Counter* ckpt_bytes = nullptr;
    obs::Gauge* sim_clock = nullptr;
    obs::Gauge* epoch = nullptr;
    obs::Gauge* test_rmse = nullptr;
    obs::Gauge* train_rmse = nullptr;
    obs::Gauge* workers_alive = nullptr;
    obs::Histogram* block_seconds = nullptr;
    obs::Histogram* epoch_seconds = nullptr;
    /// Lifetime busy-sim-seconds gauge per worker (index = worker id).
    std::vector<obs::Gauge*> worker_busy;
  };

  /// Trace lane (tid) assignment: 0 = session row, worker w = w+1, then
  /// one lane each for checkpoint and fault events.
  int TraceTidForWorker(int w) const { return w + 1; }
  int TraceTidCheckpoint() const {
    return static_cast<int>(workers_.size()) + 1;
  }
  int TraceTidFault() const {
    return static_cast<int>(workers_.size()) + 2;
  }

  /// Push the barrier-time gauge values (clock, RMSE, per-worker busy
  /// time, steal deltas) into the registry; no-op when detached.
  void ExportBarrierMetrics(const TracePoint& point);

  Dataset dataset_;
  TrainConfig config_;

  // ---- Fixed execution state (deterministic from dataset + config) ----
  bool is_star_ = false;
  double planned_alpha_ = 0.0;
  const KernelOps* kernel_ops_ = nullptr;
  CpuDeviceSpec drawn_cpu_spec_;  // after the per-run variability draw
  GpuDeviceSpec drawn_gpu_spec_;
  BlockedMatrix matrix_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<std::unique_ptr<CpuDevice>> cpu_devices_;
  std::unique_ptr<PcieLink> steal_link_;
  std::vector<std::unique_ptr<GpuDevice>> gpu_devices_;
  std::vector<Worker> workers_;
  std::unique_ptr<ThreadPool> eval_pool_;
  /// The test split bucketed by block once by Init, each bucket a copy of
  /// its ratings and their positions (16 bytes per test rating: 2.5 MB at
  /// perfbench's `live`, 0.9 MB at `train`). Appends only widen the
  /// grid's trailing strata, so the buckets stay valid.
  BlockBuckets test_buckets_;
  /// One error per test rating, at its position in the split: the SGD
  /// sweep's lanes write them and the epoch folds them into the test
  /// RMSE. Sized once by Init (4 bytes per test rating: 640 KB at
  /// perfbench's `live`, 225 KB at `train`), so an epoch's evaluation
  /// allocates nothing.
  std::vector<float> test_errors_;

  // ---- Evolving state (persisted by SaveCheckpoint) -------------------
  std::unique_ptr<Model> model_;
  SimTime clock_ = 0.0;
  int epochs_run_ = 0;
  bool reached_target_ = false;
  Trace trace_;
  int64_t total_tasks_ = 0;
  int64_t gpu_nnz_ = 0;
  int64_t total_nnz_processed_ = 0;
  /// Streaming moments of per-block processing times (count/sum/sum of
  /// squares) for update_rate_cv — streamed rather than stored so the
  /// stat survives checkpointing in O(1) space and resumes bit-exactly.
  int64_t duration_count_ = 0;
  double duration_sum_ = 0.0;
  double duration_sumsq_ = 0.0;

  // ---- Fault machinery (runtime state, never checkpointed) ------------
  int workers_alive_ = 0;
  std::unique_ptr<FaultInjector> injector_;
  FaultStats fault_stats_;
  bool failed_ = false;

  // ---- Online-append state (runtime, never checkpointed) --------------
  /// The epoch barrier: held for the whole of RunEpochImpl (the factor
  /// buffers may be reallocated by a concurrent append, so even reads
  /// must exclude epochs), by AppendRatings and by SaveCheckpoint;
  /// try-locked by VisitQuiesced.
  mutable std::mutex epoch_mu_;
  /// FingerprintDataset(dataset_), filled by the first SaveCheckpoint and
  /// dropped by AppendRatings, the only code that mutates dataset_; both
  /// hold epoch_mu_, which guards it.
  mutable std::unique_ptr<DatasetFingerprint> fingerprint_;
  /// Per-block dirty bits set by AppendRatings, cleared by any
  /// successful epoch (a full sweep covers every dirty block too).
  std::vector<uint8_t> dirty_;
  int64_t appended_nnz_ = 0;
  int64_t pending_nnz_ = 0;
  /// Running rating moments so cold-start factor init uses the mean of
  /// everything seen so far, matching what InitRandom would have drawn.
  double rating_sum_ = 0.0;
  int64_t rating_count_ = 0;
  /// Cold-row init stream (stream 29), disjoint from the model-init
  /// stream so appends never perturb the base initialization.
  Rng growth_rng_{0, 29};

  // ---- Observability (runtime state, never checkpointed) --------------
  Observability obs_;
  MetricsHandles metric_;
  /// Scheduler steal totals already exported to the registry, so each
  /// barrier adds only the delta (totals survive checkpoints; exports
  /// restart at the attach point).
  int64_t steals_gpu_exported_ = 0;
  int64_t steals_cpu_exported_ = 0;
};

}  // namespace hsgd
