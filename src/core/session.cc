#include "core/session.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "core/checkpoint.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/star_scheduler.h"
#include "sched/uniform_scheduler.h"
#include "util/logging.h"
#include "util/strings.h"

namespace hsgd {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kCpuOnly: return "CPU-Only";
    case Algorithm::kGpuOnly: return "GPU-Only";
    case Algorithm::kHsgd: return "HSGD";
    case Algorithm::kHsgdStar: return "HSGD*";
  }
  return "unknown";
}

SimTime Trace::TimeToReach(double rmse) const {
  if (points.empty()) return kSimTimeNever;
#ifndef NDEBUG
  for (size_t i = 1; i < points.size(); ++i) {
    assert(points[i - 1].epoch < points[i].epoch &&
           "trace points must be epoch-monotone");
  }
#endif
  for (const TracePoint& p : points) {
    if (p.test_rmse <= rmse) return p.time;
  }
  return kSimTimeNever;
}

namespace {

/// Heap event kinds, declared in the order they are handled at equal
/// times: a worker's task completing releases its strata first, so freed
/// strata are visible; then a lease deadline expires (a lease that
/// completes exactly at its deadline wins); then a worker becomes ready
/// to acquire. Deadline events are pushed lazily — only when a block's
/// actual finish already overshoots the deadline — so a fault-free
/// epoch's event sequence is exactly the pre-fault one.
enum class EventKind { kRelease, kExpire, kReady };

/// `seq` keeps the heap order fully deterministic.
struct Event {
  SimTime time = 0.0;
  EventKind kind = EventKind::kReady;
  int64_t seq = 0;
  int worker = 0;
  BlockTask task;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.seq > b.seq;
  }
};

int ClampStrata(int want, int64_t dim) {
  return static_cast<int>(
      std::max<int64_t>(1, std::min<int64_t>(want, dim)));
}

/// Resident column stripes per GPU under HSGD*. Two, not one: the GPU
/// finishes one stripe before opening the next, so a lagging GPU always
/// has a free (yet resident) stripe that idle CPU threads can steal from.
constexpr int kStripesPerGpu = 2;

/// Simulated timeout that flags a failed PCIe transfer before its retry.
constexpr SimTime kFaultDetectLatency = 1e-3;

/// A block lease expires when its completion takes longer than this
/// multiple of the healthy-device estimate; the block is then revoked and
/// requeued on a survivor. A device degraded by at least this factor is
/// benched instead of leased new work.
constexpr double kLeaseDeadlineFactor = 8.0;

Status ValidateConfig(const Dataset& ds, const TrainConfig& config) {
  if (ds.train.empty()) {
    return Status::InvalidArgument("dataset has no training ratings");
  }
  if (ds.num_rows <= 0 || ds.num_cols <= 0) {
    return Status::InvalidArgument("dataset has empty dimensions");
  }
  if (ds.params.k <= 0) {
    return Status::InvalidArgument("params.k must be positive");
  }
  HSGD_RETURN_IF_ERROR(ValidateConfigRanges(config));
  // A rate of 0 is legal: the factors then stay as initialized.
  for (float hyper : {ds.params.learning_rate, ds.params.lambda_p,
                      ds.params.lambda_q}) {
    if (!std::isfinite(hyper) || hyper < 0.0f) {
      return Status::InvalidArgument(
          "learning_rate, lambda_p and lambda_q must be finite and >= 0");
    }
  }
  const Algorithm algo = config.algorithm;
  const int nc = config.hardware.num_cpu_threads;
  const int ng = config.hardware.num_gpus;
  const bool wants_cpu = algo != Algorithm::kGpuOnly;
  const bool wants_gpu = algo != Algorithm::kCpuOnly;
  if (wants_cpu && nc < 1) {
    return Status::InvalidArgument(
        StrFormat("%s needs at least 1 CPU thread, got %d",
                  AlgorithmName(algo), nc));
  }
  if (wants_gpu && ng < 1) {
    return Status::InvalidArgument(StrFormat(
        "%s needs at least 1 GPU, got %d", AlgorithmName(algo), ng));
  }
  return Status::Ok();
}

}  // namespace

Status ValidateConfigRanges(const TrainConfig& config) {
  if (config.max_epochs < 1 || config.max_epochs > (1 << 24)) {
    return Status::InvalidArgument("max_epochs must be in [1, 2^24]");
  }
  if (config.eval_threads < 1 || config.eval_threads > (1 << 20)) {
    return Status::InvalidArgument("eval_threads must be in [1, 2^20]");
  }
  const HardwareConfig& hardware = config.hardware;
  if (hardware.num_cpu_threads < 0 || hardware.num_cpu_threads > (1 << 20) ||
      hardware.num_gpus < 0 || hardware.num_gpus > 4096 ||
      hardware.gpu_workers < 1 || hardware.gpu_workers > (1 << 20)) {
    return Status::InvalidArgument("hardware fleet size out of range");
  }
  if (!std::isfinite(hardware.cpu_updates_per_sec_k128) ||
      hardware.cpu_updates_per_sec_k128 <= 0.0) {
    return Status::InvalidArgument(
        "cpu_updates_per_sec_k128 must be finite and > 0");
  }
  if (!std::isfinite(hardware.speed_variability) ||
      hardware.speed_variability < 0.0) {
    return Status::InvalidArgument(
        "speed_variability must be finite and >= 0");
  }
  return Status::Ok();
}

Session::Session(Dataset dataset, TrainConfig config)
    : dataset_(std::move(dataset)), config_(config) {}

Session::~Session() = default;

StatusOr<std::unique_ptr<Session>> Session::Create(Dataset dataset,
                                                   TrainConfig config) {
  HSGD_RETURN_IF_ERROR(ValidateConfig(dataset, config));
  std::unique_ptr<Session> session(
      new Session(std::move(dataset), config));
  HSGD_RETURN_IF_ERROR(session->Init());
  return session;
}

Status Session::Init() {
  const Algorithm algo = config_.algorithm;
  const int nc = config_.hardware.num_cpu_threads;
  const int ng = config_.hardware.num_gpus;
  const bool wants_cpu = algo != Algorithm::kGpuOnly;
  const bool wants_gpu = algo != Algorithm::kCpuOnly;
  const int k = dataset_.params.k;
  const int32_t rows = dataset_.num_rows;
  const int32_t cols = dataset_.num_cols;
  const int64_t n = dataset_.train_size();
  is_star_ = algo == Algorithm::kHsgdStar;

  // The mean is finite exactly when every rating is, so the one stats
  // pass both seeds the model and refuses a NaN or infinite rating
  // before a grid or matrix is built from it.
  const RatingStats train_stats = ComputeStats(dataset_.train);
  if (!std::isfinite(train_stats.mean_rating)) {
    return Status::InvalidArgument(
        "training split holds a non-finite rating");
  }

  // Resolve the compute kernel up front and pin the concrete choice into
  // the config: everything downstream (cost model, checkpoints) must see
  // the variant actually running, not "auto".
  {
    auto resolved = ResolveKernelKind(config_.kernel);
    if (!resolved.ok()) return resolved.status();
    config_.kernel = *resolved;
    kernel_ops_ = &GetKernelOps(*resolved);
  }

  // The nominal devices are the testbed specs with the fleet's CPU rate
  // and GPU width; the cost model below always plans with them. The
  // per-run speed draw scales the devices that actually run — the gap
  // between plan and reality is what the dynamic phase corrects.
  CpuDeviceSpec cpu_spec;
  cpu_spec.updates_per_sec_k128 = config_.hardware.cpu_updates_per_sec_k128;
  GpuDeviceSpec gpu_spec;
  gpu_spec.parallel_workers = config_.hardware.gpu_workers;
  Rng var_rng(config_.seed, 17);
  drawn_cpu_spec_ = cpu_spec;
  drawn_gpu_spec_ = gpu_spec;
  if (config_.hardware.speed_variability > 0.0) {
    drawn_cpu_spec_.speed_factor *=
        std::exp(config_.hardware.speed_variability * var_rng.Gaussian());
    drawn_gpu_spec_.speed_factor *=
        std::exp(config_.hardware.speed_variability * var_rng.Gaussian());
  }

  // ---- Block division and scheduler -------------------------------------
  Rng shuffle_rng(config_.seed, 2);
  Grid grid;
  planned_alpha_ = 0.0;
  if (is_star_) {
    Profiler profiler(gpu_spec, cpu_spec, k);
    auto cost_model = profiler.BuildHsgdModel(dataset_);
    if (!cost_model.ok()) return cost_model.status();
    if (kStripesPerGpu * ng + nc > cols) {
      return Status::InvalidArgument(
          StrFormat("HSGD* needs %d column stripes but matrix has only %d "
                    "columns",
                    kStripesPerGpu * ng + nc, cols));
    }
    // Spare CPU stripes keep the pool over-decomposed: threads route
    // around locked columns, an idle GPU can steal from a *free* stripe
    // (stealing from a busy one could only displace its owner), and the
    // epoch tail stays parallel — with stripes ~= threads, the wind-down
    // convoys on the last few pending columns and CPU utilization craters.
    int spare = std::max(2, nc);
    spare = std::min<int64_t>(spare, cols - kStripesPerGpu * ng - nc);
    const int cpu_stripes = nc + std::max(0, spare);
    const int gpu_stripes = kStripesPerGpu * ng;
    // Row strata: enough for every worker to hold one with slack left
    // over (or the dynamic phase could never find a runnable block to
    // steal), up to 2x the worker count on big inputs — but never so many
    // that blocks collapse below a useful granule (tiny blocks drown in
    // kernel-launch overhead and CPU warm-up).
    const int64_t block_target = 600;
    const int64_t p_by_size =
        n / ((static_cast<int64_t>(gpu_stripes) + cpu_stripes) *
             block_target);
    const int p = ClampStrata(
        static_cast<int>(std::max<int64_t>(
            std::min<int64_t>(2 * (nc + ng), p_by_size), nc + ng + 2)),
        rows);
    AlphaQuery query;
    query.epoch_nnz = n;
    query.num_cpu_threads = nc;
    query.num_gpus = ng;
    query.row_strata = p;
    query.stripes_per_gpu = kStripesPerGpu;
    query.num_cpu_stripes = cpu_stripes;
    query.num_rows = rows;
    query.num_cols = cols;
    planned_alpha_ = cost_model->DecideAlpha(config_.cost_model, query);
    std::vector<double> shares;
    shares.reserve(static_cast<size_t>(gpu_stripes + cpu_stripes));
    for (int g = 0; g < gpu_stripes; ++g) {
      shares.push_back(planned_alpha_ / gpu_stripes);
    }
    for (int t = 0; t < cpu_stripes; ++t) {
      shares.push_back((1.0 - planned_alpha_) / cpu_stripes);
    }
    auto grid_or =
        BuildGridWithColShares(dataset_.train, rows, cols, p, shares);
    if (!grid_or.ok()) return grid_or.status();
    grid = *std::move(grid_or);
  } else {
    int want = algo == Algorithm::kCpuOnly ? nc
               : algo == Algorithm::kGpuOnly ? ng
                                             : nc + ng;
    auto grid_or = BuildBalancedGrid(dataset_.train, rows, cols,
                                     ClampStrata(want, rows),
                                     ClampStrata(want, cols));
    if (!grid_or.ok()) return grid_or.status();
    grid = *std::move(grid_or);
  }

  auto matrix_or = BlockedMatrix::Build(dataset_.train, grid, &shuffle_rng);
  if (!matrix_or.ok()) return matrix_or.status();
  matrix_ = *std::move(matrix_or);
  auto buckets_or = BucketByBlock(dataset_.test, matrix_.grid());
  if (!buckets_or.ok()) {
    return Status::InvalidArgument("test split: " +
                                   buckets_or.status().message());
  }
  test_buckets_ = *std::move(buckets_or);
  test_errors_.assign(dataset_.test.size(), 0.0f);

  if (is_star_) {
    StarSchedulerOptions opts;
    opts.num_gpu_stripes = kStripesPerGpu * ng;
    opts.num_cpu_stripes =
        matrix_.grid().num_col_strata() - kStripesPerGpu * ng;
    opts.stripes_per_gpu = kStripesPerGpu;
    opts.dynamic = config_.dynamic_scheduling;
    // Cost-aware gate on CPU-side stealing: an excursion into a GPU
    // stripe pays one D2H for the stripe's resident column factors.
    // That is worth it when a few stolen block-sweeps amortize the
    // transfer; when the factors outweigh the work (small blocks, fat
    // stripes) the "help" would lengthen the epoch instead.
    {
      PcieLink link(drawn_gpu_spec_);
      CpuDevice probe(drawn_cpu_spec_, k);
      const double gpu_block_nnz =
          planned_alpha_ * static_cast<double>(n) /
          (kStripesPerGpu * ng * matrix_.grid().num_row_strata());
      const int64_t col_bytes =
          static_cast<int64_t>(matrix_.grid().ColStratumWidth(0)) * k * 4;
      const double pull =
          link.TransferTime(col_bytes, TransferDirection::kDeviceToHost);
      const double sweep =
          probe.UpdateTime(static_cast<int64_t>(gpu_block_nnz));
      opts.allow_cpu_steals = pull < 3.0 * sweep;
    }
    scheduler_ = std::make_unique<StarScheduler>(
        &matrix_, &matrix_.grid(), opts, Rng(config_.seed, 3));
  } else {
    scheduler_ = std::make_unique<UniformScheduler>(
        &matrix_, &matrix_.grid(), Rng(config_.seed, 3));
  }

  // ---- Simulated workers -------------------------------------------------
  // PCIe cost of a CPU thread pulling a GPU-resident column stripe when
  // it steals from the GPU region (see the steal branch in RunEpoch).
  steal_link_ = std::make_unique<PcieLink>(drawn_gpu_spec_);
  if (wants_cpu) {
    for (int t = 0; t < nc; ++t) {
      // One CpuDevice per thread: identical specs (so healthy timings
      // match the old shared device bit-for-bit) but independent health,
      // letting a straggler fault hit a single thread.
      cpu_devices_.push_back(
          std::make_unique<CpuDevice>(drawn_cpu_spec_, k));
      Worker w;
      w.info = {DeviceClass::kCpuThread, t,
                static_cast<int>(workers_.size())};
      w.cpu = cpu_devices_.back().get();
      workers_.push_back(w);
    }
  }
  if (wants_gpu) {
    for (int g = 0; g < ng; ++g) {
      gpu_devices_.push_back(
          std::make_unique<GpuDevice>(drawn_gpu_spec_, k,
                                      /*pipelined=*/true));
      Worker w;
      w.info = {DeviceClass::kGpu, g, static_cast<int>(workers_.size())};
      w.gpu = gpu_devices_.back().get();
      workers_.push_back(w);
    }
  }

  // ---- Real model and evaluation ----------------------------------------
  model_ = std::make_unique<Model>(rows, cols, k);
  Rng model_rng(config_.seed, 1);
  model_->InitRandom(&model_rng, train_stats.mean_rating);
  eval_pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(
      std::min(16, std::max(1, config_.eval_threads))));

  workers_alive_ = static_cast<int>(workers_.size());
  growth_rng_ = Rng(config_.seed, 29);
  rating_sum_ = train_stats.mean_rating * static_cast<double>(n);
  rating_count_ = n;
  dirty_.assign(static_cast<size_t>(matrix_.num_blocks()), 0);
  return Status::Ok();
}

bool Session::Done() const {
  if (failed_) return true;
  if (config_.use_dataset_target && reached_target_) return true;
  return epochs_run_ >= config_.max_epochs;
}

Status Session::SetFaultPlan(const FaultPlan& plan) {
  const int nc = config_.hardware.num_cpu_threads;
  const int ng = config_.hardware.num_gpus;
  const bool has_cpu = config_.algorithm != Algorithm::kGpuOnly;
  const bool has_gpu = config_.algorithm != Algorithm::kCpuOnly;
  for (const FaultSpec& spec : plan.specs) {
    if (IsServeFault(spec.kind)) {
      return Status::InvalidArgument(StrFormat(
          "fault \"%s\" is a serve-loop kind; attach it to a "
          "ServeFaultInjector",
          spec.ToString().c_str()));
    }
    const bool gpu_target = spec.device_class == DeviceClass::kGpu;
    const int fleet = gpu_target ? (has_gpu ? ng : 0)
                                 : (has_cpu ? nc : 0);
    if (spec.device_index >= fleet) {
      return Status::InvalidArgument(StrFormat(
          "fault \"%s\" targets %s%d but the session has %d of them",
          spec.ToString().c_str(), gpu_target ? "gpu" : "cpu",
          spec.device_index, fleet));
    }
  }
  injector_ = std::make_unique<FaultInjector>(plan);
  return Status::Ok();
}

void Session::SetObservability(const Observability& obs) {
  obs_ = obs;
  metric_ = MetricsHandles{};
  // Devices carry their own tracer hook so their internal pipeline
  // timings land on the right lane without round-tripping the session.
  for (const Worker& w : workers_) {
    if (w.gpu != nullptr) {
      w.gpu->SetTrace(obs_.trace, TraceTidForWorker(w.info.worker_index));
    }
  }
  if (obs_.trace != nullptr) {
    obs_.trace->SetThreadName(
        0, StrFormat("session (%s)", scheduler_->name()));
    for (const Worker& w : workers_) {
      obs_.trace->SetThreadName(
          TraceTidForWorker(w.info.worker_index),
          StrFormat("%s%d",
                    w.info.device_class == DeviceClass::kGpu ? "gpu" : "cpu",
                    w.info.device_index));
    }
    obs_.trace->SetThreadName(TraceTidCheckpoint(), "checkpoint");
    obs_.trace->SetThreadName(TraceTidFault(), "fault");
  }
  if (obs_.metrics != nullptr) {
    obs::MetricsRegistry* r = obs_.metrics;
    metric_.epochs = r->counter("session.epochs");
    metric_.blocks = r->counter("session.blocks");
    metric_.nnz = r->counter("session.nnz");
    metric_.steals_by_gpu = r->counter("sched.steals_by_gpu");
    metric_.steals_by_cpu = r->counter("sched.steals_by_cpu");
    metric_.devices_lost = r->counter("fault.devices_lost");
    metric_.leases_revoked = r->counter("fault.leases_revoked");
    metric_.blocks_requeued = r->counter("fault.blocks_requeued");
    metric_.blocks_lost = r->counter("fault.blocks_lost");
    metric_.transfer_faults = r->counter("fault.transfer_faults");
    metric_.ckpt_writes = r->counter("ckpt.writes");
    metric_.ckpt_bytes = r->counter("ckpt.bytes");
    metric_.sim_clock = r->gauge("session.sim_clock");
    metric_.epoch = r->gauge("session.epoch");
    metric_.test_rmse = r->gauge("session.test_rmse");
    metric_.train_rmse = r->gauge("session.train_rmse");
    metric_.workers_alive = r->gauge("session.workers_alive");
    metric_.block_seconds = r->histogram(
        "session.block_sim_seconds", obs::ExponentialBounds(1e-6, 2.0, 24));
    metric_.epoch_seconds = r->histogram(
        "session.epoch_sim_seconds", obs::ExponentialBounds(1e-3, 2.0, 20));
    metric_.worker_busy.resize(workers_.size(), nullptr);
    for (const Worker& w : workers_) {
      metric_.worker_busy[static_cast<size_t>(w.info.worker_index)] =
          r->gauge(StrFormat(
              "device.%s%d.busy_sim_seconds",
              w.info.device_class == DeviceClass::kGpu ? "gpu" : "cpu",
              w.info.device_index));
    }
  }
  // Steal tallies accumulate across the session (and across restores);
  // the registry sees only the deltas from the attach point forward.
  steals_gpu_exported_ = scheduler_->stolen_by_gpus();
  steals_cpu_exported_ = scheduler_->stolen_by_cpus();
}

void Session::ExportBarrierMetrics(const TracePoint& point) {
  if (obs_.metrics == nullptr) return;
  obs::Increment(metric_.epochs);
  obs::Set(metric_.sim_clock, clock_);
  obs::Set(metric_.epoch, point.epoch);
  obs::Set(metric_.test_rmse, point.test_rmse);
  obs::Set(metric_.train_rmse, point.train_rmse);
  obs::Set(metric_.workers_alive, workers_alive_);
  const int64_t sg = scheduler_->stolen_by_gpus();
  const int64_t sc = scheduler_->stolen_by_cpus();
  obs::Add(metric_.steals_by_gpu, sg - steals_gpu_exported_);
  obs::Add(metric_.steals_by_cpu, sc - steals_cpu_exported_);
  steals_gpu_exported_ = sg;
  steals_cpu_exported_ = sc;
  for (const Worker& w : workers_) {
    obs::Gauge* busy =
        metric_.worker_busy[static_cast<size_t>(w.info.worker_index)];
    if (w.gpu != nullptr) {
      obs::Set(busy, w.gpu->busy_seconds());
    } else if (w.cpu != nullptr) {
      obs::Set(busy, w.cpu->busy_seconds());
    }
  }
}

StatusOr<TracePoint> Session::RunEpoch() {
  std::lock_guard<std::mutex> quiesce(epoch_mu_);
  return RunEpochImpl(nullptr);
}

StatusOr<TracePoint> Session::RunIncrementalEpoch() {
  std::lock_guard<std::mutex> quiesce(epoch_mu_);
  std::vector<int> blocks;
  for (size_t b = 0; b < dirty_.size(); ++b) {
    if (dirty_[b]) blocks.push_back(static_cast<int>(b));
  }
  if (blocks.empty()) {
    return Status::FailedPrecondition(
        "no appended ratings pending an incremental epoch");
  }
  return RunEpochImpl(&blocks);
}

StatusOr<TracePoint> Session::RunEpochImpl(const std::vector<int>* subset) {
  if (Done()) {
    return Status::FailedPrecondition(
        failed_ ? "session permanently failed after device loss"
        : reached_target_
            ? "session already reached the dataset target"
            : "session already ran its epoch budget");
  }
  const Algorithm algo = config_.algorithm;
  const int ng = config_.hardware.num_gpus;
  const int k = dataset_.params.k;
  const int epoch = epochs_run_ + 1;
  const int num_workers = static_cast<int>(workers_.size());
  const Grid& grid = matrix_.grid();

  scheduler_->BeginEpoch(subset);
  const SimTime epoch_start = clock_;

  std::priority_queue<Event, std::vector<Event>, EventLater> pq;
  int64_t seq = 0;
  auto push = [&](SimTime time, EventKind kind, int worker,
                  const BlockTask& task = BlockTask()) {
    pq.push(Event{time, kind, seq++, worker, task});
  };
  std::vector<char> waiting(static_cast<size_t>(num_workers), 0);
  SimTime epoch_end = epoch_start;
  int64_t released = 0;

  // Only live workers wait: kill_worker clears a dead worker's flag.
  auto wake_waiters = [&](SimTime now) {
    for (int w = 0; w < num_workers; ++w) {
      if (!waiting[static_cast<size_t>(w)]) continue;
      waiting[static_cast<size_t>(w)] = 0;
      push(now, EventKind::kReady, w);
    }
  };

  auto failure = [] {
    return Status::Internal("all workers dead; training cannot continue");
  };

  // Take back an outstanding lease whose holder died or blew its
  // deadline; true when its block was requeued, false when dropped. The
  // lease's pending release turns into a no-op (the event loop drops
  // events of leases no longer outstanding), so nothing the holder
  // "finished" after `now` reaches the model.
  auto revoke = [&](const BlockTask& task, SimTime now, const char* why) {
    ++fault_stats_.leases_revoked;
    obs::Increment(metric_.leases_revoked);
    const bool requeued = scheduler_->RevokeLease(task);
    if (requeued) {
      ++fault_stats_.blocks_requeued;
      obs::Increment(metric_.blocks_requeued);
    } else {
      ++fault_stats_.blocks_lost;
      obs::Increment(metric_.blocks_lost);
    }
    if (obs_.trace != nullptr) {
      obs_.trace->Instant("fault", why, TraceTidFault(), now,
                          {obs::TraceArg::Int("block", task.block),
                           obs::TraceArg::Int("worker", task.worker)});
    }
    return requeued;
  };

  auto kill_worker = [&](int w, SimTime now) {
    Worker& worker = workers_[w];
    if (worker.health().dead()) return;
    worker.set_health(MakeDead());
    waiting[static_cast<size_t>(w)] = 0;
    --workers_alive_;
    ++fault_stats_.devices_lost;
    fault_stats_.degraded = true;
    obs::Increment(metric_.devices_lost);
    const std::string device = StrFormat(
        "%s%d", worker.info.device_class == DeviceClass::kGpu ? "gpu" : "cpu",
        worker.info.device_index);
    if (obs_.trace != nullptr) {
      obs_.trace->Instant(
          "fault", "device_lost", TraceTidFault(), now,
          {obs::TraceArg::Str("device", device),
           obs::TraceArg::Int("workers_alive", workers_alive_)});
    }
    scheduler_->MarkWorkerDead(worker.info);
    const std::vector<BlockTask> leases = scheduler_->LeasesHeldBy(w);
    for (const BlockTask& task : leases) revoke(task, now, "lease_revoked");
    HSGD_LOG(Warning) << device << " died at t=" << now << " (epoch "
                      << epoch << "): revoked " << leases.size()
                      << " leases, " << workers_alive_ << " workers remain";
    if (workers_alive_ == 0) failed_ = true;
    wake_waiters(now);
  };

  // The worker running the device a fault names. SetFaultPlan rejects
  // faults naming a device outside the fleet.
  auto worker_of = [&](const FaultSpec& spec) {
    int w = 0;
    while (w < num_workers &&
           (workers_[w].info.device_class != spec.device_class ||
            workers_[w].info.device_index != spec.device_index)) {
      ++w;
    }
    HSGD_CHECK(w < num_workers) << "no worker runs " << spec.ToString();
    return w;
  };

  auto handle_faults = [&](const std::vector<const FaultSpec*>& fired,
                           SimTime now) {
    for (const FaultSpec* spec : fired) {
      switch (spec->kind) {
        case FaultKind::kGpuCrash:
        case FaultKind::kCpuCrash:
          kill_worker(worker_of(*spec), now);
          break;
        case FaultKind::kStraggler: {
          fault_stats_.degraded = true;
          const int w = worker_of(*spec);
          if (workers_[w].health().dead()) break;
          workers_[w].set_health(
              MakeDegraded(spec->slowdown, now, spec->duration));
          HSGD_LOG(Warning) << "straggler fault: " << spec->ToString()
                            << " at t=" << now;
          if (obs_.trace != nullptr) {
            // A bounded degradation window renders as a span over its
            // duration; an open-ended one as an instant marker.
            const int tid = TraceTidForWorker(w);
            std::vector<obs::TraceArg> args = {
                obs::TraceArg::Double("slowdown", spec->slowdown)};
            if (spec->duration < kSimTimeNever) {
              obs_.trace->Span("fault", "straggler", tid, now,
                               now + spec->duration, std::move(args));
            } else {
              obs_.trace->Instant("fault", "straggler", tid, now,
                                  std::move(args));
            }
          }
          break;
        }
        case FaultKind::kLinkFault:
          if (spec->device_index <
              static_cast<int>(gpu_devices_.size())) {
            fault_stats_.degraded = true;
            fault_stats_.transfer_faults += spec->count;
            obs::Add(metric_.transfer_faults, spec->count);
            gpu_devices_[spec->device_index]
                ->mutable_link()
                .InjectTransferFaults(spec->count, kFaultDetectLatency);
            HSGD_LOG(Warning) << "link fault: " << spec->ToString()
                              << " at t=" << now;
            if (obs_.trace != nullptr) {
              obs_.trace->Instant(
                  "fault", "link_fault", TraceTidFault(), now,
                  {obs::TraceArg::Int("gpu", spec->device_index),
                   obs::TraceArg::Int("count", spec->count)});
            }
          }
          break;
        case FaultKind::kPublishPoison:
        case FaultKind::kWalIo:
        case FaultKind::kQueryStorm:
        case FaultKind::kSlowShard:
          // Serve kinds never reach the session: SetFaultPlan rejects
          // them (fault/serve_injector.h fires them instead).
          break;
      }
    }
  };

  if (injector_ != nullptr) {
    injector_->BeginEpoch(epoch, scheduler_->remaining_blocks());
    handle_faults(injector_->Poll(0), epoch_start);
    if (failed_) return failure();
  }

  // Resident-factor uploads. GPU-Only keeps everything in device memory
  // (one initial upload); HSGD* re-syncs each GPU's column stripe at
  // every epoch boundary. Dead GPUs are skipped.
  for (int g = 0; g < static_cast<int>(gpu_devices_.size()); ++g) {
    if (gpu_devices_[g]->health().dead()) continue;
    int64_t bytes = 0;
    if (algo == Algorithm::kGpuOnly && epoch == 1) {
      // Every GPU keeps the full P and Q resident, so each pays the
      // full upload.
      bytes = (static_cast<int64_t>(dataset_.num_rows) +
               dataset_.num_cols) *
              k * 4;
    } else if (is_star_) {
      for (int s = 0; s < kStripesPerGpu; ++s) {
        bytes += static_cast<int64_t>(
                     grid.ColStratumWidth(g * kStripesPerGpu + s)) *
                 k * 4;
      }
    }
    if (bytes > 0) gpu_devices_[g]->Upload(epoch_start, bytes);
  }

  SgdHyper hyper;
  hyper.learning_rate = dataset_.params.learning_rate /
                        (1.0f + 0.05f * static_cast<float>(epoch - 1));
  hyper.lambda_p = dataset_.params.lambda_p;
  hyper.lambda_q = dataset_.params.lambda_q;

  for (int w = 0; w < num_workers; ++w) {
    if (!workers_[w].health().dead()) push(epoch_start, EventKind::kReady, w);
  }
  // Cross-device column-stripe coherence during the dynamic phase:
  // the first CPU steal from a GPU stripe pulls its resident column
  // factors to the host (one D2H per excursion, not per block); the
  // stripe is then dirty, and the owning GPU re-uploads it if it
  // comes back before the epoch-boundary sync.
  std::vector<char> stripe_on_host(
      static_cast<size_t>(is_star_ ? kStripesPerGpu * ng : 0), 0);
  std::vector<char> stripe_dirty(stripe_on_host.size(), 0);

  auto try_acquire = [&](int w, SimTime now) {
    auto task = scheduler_->Acquire(workers_[w].info);
    if (!task.has_value()) {
      if (!scheduler_->EpochDone()) waiting[static_cast<size_t>(w)] = 1;
      return;
    }
    // Note the SGD arithmetic is NOT applied here: the block joins the
    // epoch's commit list when its release event commits, so a lease
    // revoked in between never reaches the model and the requeued block
    // applies exactly once. For conflicting blocks release order equals
    // acquire order (strata serialization), and SgdUpdateBlocks keeps
    // that order while running non-conflicting blocks side by side.

    SimTime finish, next_free, proc;
    // Extra seconds faults added to this block (slowdown, failed
    // transfers); exactly 0.0 on a healthy run. The lease deadline is
    // measured against the healthy portion finish - excess.
    SimTime excess = 0.0;
    if (workers_[w].gpu != nullptr) {
      GpuWorkItem item;
      item.nnz = task->nnz;
      item.rows = grid.RowStratumWidth(task->row);
      // Column factors ride along unless resident: GPU-Only keeps all
      // of Q on device; HSGD* keeps the GPU's own stripe resident —
      // except when a stealing CPU dirtied the host copy, which costs
      // the GPU one re-upload of the stripe.
      bool resident_cols =
          algo == Algorithm::kGpuOnly ||
          (is_star_ &&
           task->col / kStripesPerGpu == workers_[w].info.device_index &&
           task->col < kStripesPerGpu * ng);
      if (resident_cols && is_star_ &&
          stripe_dirty[static_cast<size_t>(task->col)]) {
        resident_cols = false;
        stripe_dirty[static_cast<size_t>(task->col)] = 0;
        stripe_on_host[static_cast<size_t>(task->col)] = 0;
      }
      item.cols = resident_cols ? 0 : grid.ColStratumWidth(task->col);
      if (algo == Algorithm::kGpuOnly) item.rows = 0;  // P resident too
      PipelineTiming t = workers_[w].gpu->Process(now, item);

      // The worker is free to fetch its next block as soon as this
      // kernel launches — that H2D rides under the running kernel,
      // which is exactly the overlap Eq. 9 credits the GPU with.
      next_free = t.kernel_start;
      // Resident blocks release at kernel end: their column factors
      // never leave the device, and the row factors' D2H is tracked on
      // the device's transfer stream. Traveling (stolen / uniform)
      // blocks hold their strata until the factors are back on host.
      finish = resident_cols ? t.kernel_done : t.d2h_done;
      proc = t.kernel_done - t.h2d_start;
      excess = (t.d2h_done - t.h2d_start) - t.healthy_span;
      gpu_nnz_ += task->nnz;
    } else {
      proc = workers_[w].cpu->ChargeAt(now, task->nnz);
      excess = proc - workers_[w].cpu->UpdateTime(task->nnz);
      // A CPU thread stealing from a GPU-resident stripe must first
      // pull the current column factors off the device — one D2H per
      // excursion (later blocks of the same stripe reuse the host
      // copy); the stripe becomes dirty for the owning GPU. If the
      // owning GPU is dead there is nothing newer on the device (block
      // updates commit to the host model at release), so orphan-stripe
      // rescues skip the pull.
      if (is_star_ && task->stolen && task->col < kStripesPerGpu * ng) {
        const int owner = task->col / kStripesPerGpu;
        const bool owner_dead =
            owner < static_cast<int>(gpu_devices_.size()) &&
            gpu_devices_[static_cast<size_t>(owner)]->health().dead();
        if (!owner_dead) {
          const size_t s = static_cast<size_t>(task->col);
          if (!stripe_on_host[s]) {
            const int64_t col_bytes =
                static_cast<int64_t>(grid.ColStratumWidth(task->col)) *
                k * 4;
            proc += steal_link_->TransferTime(
                col_bytes, TransferDirection::kDeviceToHost);
            stripe_on_host[s] = 1;
          }
          stripe_dirty[s] = 1;
        }
      }
      finish = now + proc;
      next_free = finish;
      if (obs_.trace != nullptr) {
        obs_.trace->Span("device", "cpu_block",
                         TraceTidForWorker(workers_[w].info.worker_index),
                         now, finish,
                         {obs::TraceArg::Int("block", task->block),
                          obs::TraceArg::Int("nnz", task->nnz)});
      }
    }
    if (task->stolen && obs_.trace != nullptr) {
      obs_.trace->Instant("sched", "steal",
                          TraceTidForWorker(workers_[w].info.worker_index),
                          now,
                          {obs::TraceArg::Int("block", task->block),
                           obs::TraceArg::Int("col", task->col)});
    }
    const double duration = std::max(proc, 1e-12);
    ++duration_count_;
    duration_sum_ += duration;
    duration_sumsq_ += duration * duration;
    ++total_tasks_;
    total_nnz_processed_ += task->nnz;
    obs::Increment(metric_.blocks);
    obs::Add(metric_.nnz, task->nnz);
    obs::Observe(metric_.block_seconds, duration);

    push(finish, EventKind::kRelease, w, *task);
    push(next_free, EventKind::kReady, w);

    // Lease watchdog: arm a deadline only when the block is ALREADY
    // going to overshoot it (a fault is in effect). A healthy block has
    // excess == 0, so finish == healthy finish and no event is pushed —
    // fault-free epochs keep the exact pre-fault event sequence.
    const SimTime healthy_finish = finish - excess;
    const SimTime deadline =
        now + kLeaseDeadlineFactor * std::max(healthy_finish - now, 1e-9);
    if (finish > deadline) push(deadline, EventKind::kExpire, w, *task);
  };

  // The event loop only records committed blocks, in commit order.
  // SgdUpdateBlocks then applies them on the eval pool with the same bits
  // as applying each at its release, also after a stall or abort exit,
  // so a failed epoch keeps what committed before the failure. After a
  // successful loop its lanes also compute the test errors, each once
  // its rows are final. The epoch barrier is still held, so no reader
  // sees the factors mid-write.
  std::vector<int> committed;
  const Status simulated = [&]() -> Status {
    while (!scheduler_->EpochDone()) {
      if (pq.empty()) {
        // Blocks are pending but nobody is left (or able) to run them.
        failed_ = true;
        return Status::Internal(
            "simulation stalled: pending blocks but no live workers");
      }
      Event e = pq.top();
      pq.pop();
      // An event of a lease that is no longer outstanding is dropped. A
      // revoked lease's release never applies its updates, so the
      // requeued copy of the block applies exactly once; a deadline that
      // passes after its release committed is stale.
      if (e.kind != EventKind::kReady &&
          !scheduler_->LeaseOutstanding(e.task.lease)) {
        continue;
      }
      if (e.kind == EventKind::kRelease) {
        // The real update: the simulator decided *when*, the kernel does
        // the arithmetic once the loop is over.
        committed.push_back(e.task.block);
        scheduler_->Release(e.task);
        epoch_end = std::max(epoch_end, e.time);
        // Freed strata may unblock starved workers.
        wake_waiters(e.time);
        ++released;
        if (injector_ != nullptr) {
          handle_faults(injector_->Poll(static_cast<int>(released)),
                        e.time);
        }
      } else if (e.kind == EventKind::kExpire) {
        // Watchdog: the lease's deadline passed before its release, so
        // revoke it and let a survivor pick the block up.
        const bool requeued = revoke(e.task, e.time, "lease_expired");
        HSGD_LOG(Warning) << "lease on block " << e.task.block
                          << " expired at t=" << e.time << " (worker "
                          << e.worker << "); "
                          << (requeued ? "requeued" : "dropped");
        wake_waiters(e.time);
      } else {
        const int w = e.worker;
        const DeviceHealth& health = workers_[w].health();
        if (health.dead()) continue;
        // Degraded-mode scheduling: a worker wedged by at least the
        // deadline factor would blow the deadline of every block it
        // takes, so bench it — until the degradation window closes
        // (transient straggler), or permanently, in which case the
        // watchdog declares it dead.
        if (health.state == HealthState::kDegraded &&
            health.SlowdownAt(e.time) >= kLeaseDeadlineFactor) {
          if (health.degraded_until < kSimTimeNever) {
            push(health.degraded_until, EventKind::kReady, w);
          } else {
            kill_worker(w, e.time);
          }
        } else {
          try_acquire(w, e.time);
        }
      }
      if (failed_) return failure();
    }
    return Status::Ok();
  }();
  EvalSet test;
  test.buckets = &test_buckets_;
  test.errors = test_errors_.data();
  const double sq_err =
      SgdUpdateBlocks(model_.get(), matrix_, committed, hyper, kernel_ops_,
                      eval_pool_.get(), simulated.ok() ? &test : nullptr);
  HSGD_RETURN_IF_ERROR(simulated);
  clock_ = epoch_end;  // epoch barrier: evaluate, then start together
  if (obs_.trace != nullptr) {
    obs_.trace->Span("session", StrFormat("epoch %d", epoch), 0,
                     epoch_start, epoch_end,
                     {obs::TraceArg::Int("epoch", epoch)});
  }
  obs::Observe(metric_.epoch_seconds, epoch_end - epoch_start);

  // The training loss is the sweep's own: each visited rating's error
  // just before its update, over every rating the committed blocks hold.
  int64_t swept = 0;
  for (int b : committed) {
    swept += static_cast<int64_t>(matrix_.BlockRatings(b).size());
  }
  const double train_rmse =
      swept > 0 ? std::sqrt(sq_err / static_cast<double>(swept))
                : std::numeric_limits<double>::quiet_NaN();
  const double test_rmse =
      dataset_.test.empty()
          ? train_rmse
          : RmseOfErrors(test_errors_.data(),
                         static_cast<int64_t>(test_errors_.size()),
                         eval_pool_.get());
  TracePoint point;
  point.epoch = epoch;
  point.time = clock_;
  point.test_rmse = test_rmse;
  point.train_rmse = train_rmse;
  assert(trace_.points.empty() || trace_.points.back().epoch < point.epoch);
  trace_.points.push_back(point);
  epochs_run_ = epoch;
  if (config_.use_dataset_target && test_rmse <= dataset_.target_rmse) {
    reached_target_ = true;
  }

  // Any successful epoch sweeps every dirty block (a full epoch covers
  // them trivially; a subset epoch was built from them), so the pending
  // append debt is paid either way.
  if (!dirty_.empty()) std::fill(dirty_.begin(), dirty_.end(), 0);
  pending_nnz_ = 0;

  ExportBarrierMetrics(point);
  return point;
}

Status Session::AppendRatings(const Ratings& ratings) {
  std::lock_guard<std::mutex> quiesce(epoch_mu_);
  if (ratings.empty()) return Status::Ok();
  if (failed_) {
    return Status::FailedPrecondition(
        "session permanently failed after device loss");
  }
  // An id of INT32_MAX would need an extent of INT32_MAX + 1.
  constexpr int32_t kMaxId = std::numeric_limits<int32_t>::max();
  int32_t new_rows = dataset_.num_rows;
  int32_t new_cols = dataset_.num_cols;
  for (const Rating& rt : ratings) {
    if (rt.u < 0 || rt.v < 0 || rt.u == kMaxId || rt.v == kMaxId) {
      return Status::InvalidArgument(
          StrFormat("appended rating has an id outside [0, %d): (%d, %d)",
                    kMaxId, rt.u, rt.v));
    }
    if (!std::isfinite(rt.r)) {
      return Status::InvalidArgument(StrFormat(
          "appended rating (%d, %d) is not finite: %g", rt.u, rt.v, rt.r));
    }
    new_rows = std::max(new_rows, rt.u + 1);
    new_cols = std::max(new_cols, rt.v + 1);
  }
  // Fold the arrivals into the running mean BEFORE drawing cold factors,
  // so a cold row's init range reflects the data that introduced it.
  for (const Rating& rt : ratings) {
    rating_sum_ += static_cast<double>(rt.r);
  }
  rating_count_ += static_cast<int64_t>(ratings.size());
  model_->Grow(new_rows, new_cols, &growth_rng_,
               rating_sum_ / static_cast<double>(rating_count_));
  HSGD_RETURN_IF_ERROR(
      matrix_.AppendGrown(ratings, new_rows, new_cols, &dirty_));
  fingerprint_.reset();
  dataset_.train.insert(dataset_.train.end(), ratings.begin(),
                        ratings.end());
  dataset_.num_rows = new_rows;
  dataset_.num_cols = new_cols;
  appended_nnz_ += static_cast<int64_t>(ratings.size());
  pending_nnz_ += static_cast<int64_t>(ratings.size());
  return Status::Ok();
}

Status Session::VisitQuiesced(const std::function<Status()>& fn) const {
  std::unique_lock<std::mutex> quiesce(epoch_mu_, std::try_to_lock);
  if (!quiesce.owns_lock()) {
    return Status::FailedPrecondition(
        "session is mid-epoch: factors are being mutated; retry at the "
        "epoch barrier");
  }
  return fn();
}

int Session::pending_dirty_blocks() const {
  std::lock_guard<std::mutex> quiesce(epoch_mu_);
  int count = 0;
  for (uint8_t d : dirty_) count += d != 0 ? 1 : 0;
  return count;
}

Status Session::RunToCompletion() {
  while (!Done()) {
    auto point = RunEpoch();
    if (!point.ok()) return point.status();
  }
  return Status::Ok();
}

TrainStats Session::stats() const {
  TrainStats stats;
  stats.sim.reached_target = reached_target_;
  stats.sim.seconds = clock_;
  stats.sim.stolen_by_gpus = scheduler_->stolen_by_gpus();
  stats.sim.stolen_by_cpus = scheduler_->stolen_by_cpus();
  stats.sim.block_tasks = total_tasks_;
  stats.sim.nnz_processed = total_nnz_processed_;
  switch (config_.algorithm) {
    case Algorithm::kCpuOnly: stats.sim.alpha = 0.0; break;
    case Algorithm::kGpuOnly: stats.sim.alpha = 1.0; break;
    case Algorithm::kHsgd:
      stats.sim.alpha =
          total_nnz_processed_ > 0
              ? static_cast<double>(gpu_nnz_) / total_nnz_processed_
              : 0.0;
      break;
    case Algorithm::kHsgdStar: stats.sim.alpha = planned_alpha_; break;
  }
  if (duration_count_ > 1) {
    const double mean =
        duration_sum_ / static_cast<double>(duration_count_);
    const double var = std::max(
        0.0,
        duration_sumsq_ / static_cast<double>(duration_count_) -
            mean * mean);
    stats.sim.update_rate_cv = mean > 0.0 ? std::sqrt(var) / mean : 0.0;
  }
  return stats;
}

// ---- Checkpoint / restore -------------------------------------------------

Status Session::SaveCheckpoint(const std::string& path,
                               uint64_t wal_seq) const {
  std::lock_guard<std::mutex> quiesce(epoch_mu_);
  if (pending_nnz_ != 0) {
    return Status::FailedPrecondition(StrFormat(
        "%lld appended ratings are not yet trained; run "
        "RunIncrementalEpoch before saving (Restore replays growth as "
        "already trained, so checkpoints must be ingest-quiescent)",
        static_cast<long long>(pending_nnz_)));
  }
  SessionCheckpoint ckpt;
  ckpt.config = config_;
  if (fingerprint_ == nullptr) {
    fingerprint_ =
        std::make_unique<DatasetFingerprint>(FingerprintDataset(dataset_));
  }
  ckpt.dataset = *fingerprint_;
  ckpt.epochs_run = epochs_run_;
  ckpt.reached_target = reached_target_;
  ckpt.sim_clock = clock_;
  ckpt.block_tasks = total_tasks_;
  ckpt.gpu_nnz = gpu_nnz_;
  ckpt.total_nnz_processed = total_nnz_processed_;
  ckpt.duration_count = duration_count_;
  ckpt.duration_sum = duration_sum_;
  ckpt.duration_sumsq = duration_sumsq_;
  ckpt.scheduler_rng = scheduler_->rng_state();
  ckpt.stolen_by_gpus = scheduler_->stolen_by_gpus();
  ckpt.stolen_by_cpus = scheduler_->stolen_by_cpus();
  ckpt.growth_rng = growth_rng_.SaveState();
  ckpt.rating_sum = rating_sum_;
  ckpt.rating_count = rating_count_;
  ckpt.wal_seq = wal_seq;
  ckpt.gpu_streams.reserve(gpu_devices_.size());
  for (const auto& gpu : gpu_devices_) {
    ckpt.gpu_streams.push_back(gpu->stream_state());
  }
  ckpt.trace = trace_.points;
  int64_t bytes = 0;
  Status status = WriteCheckpoint(path, ckpt, *model_, &bytes);
  if (status.ok()) {
    // Counter bumps through the (possibly null) handles; mutating the
    // external registry keeps this method observably const.
    obs::Increment(metric_.ckpt_writes);
    obs::Add(metric_.ckpt_bytes, bytes);
    if (obs_.trace != nullptr) {
      // Zero-width on the virtual clock (checkpoint IO is wall time, not
      // simulated time); the wall_ms arg carries the real timing.
      obs_.trace->Span("ckpt", "checkpoint", TraceTidCheckpoint(), clock_,
                       clock_,
                       {obs::TraceArg::Int("epoch", epochs_run_),
                        obs::TraceArg::Int("bytes", bytes)});
    }
  }
  return status;
}

StatusOr<std::unique_ptr<Session>> Session::Restore(
    const std::string& path, Dataset dataset,
    const std::vector<Ratings>& growth) {
  auto file = CheckpointReader::Open(path);
  if (!file.ok()) return file.status();
  const SessionCheckpoint& ckpt = file->state();
  auto session = Create(std::move(dataset), ckpt.config);
  if (!session.ok()) return session.status();
  for (const Ratings& batch : growth) {
    HSGD_RETURN_IF_ERROR((*session)->AppendRatings(batch));
  }
  // The fingerprint is the exactness proof: the base data plus the
  // replayed growth must reconstruct byte-for-byte the dataset the
  // checkpoint was saved against, or the factors we are about to install
  // describe different data.
  DatasetFingerprint fp = FingerprintDataset((*session)->dataset_);
  if (fp != ckpt.dataset) {
    auto describe = [](const DatasetFingerprint& d) {
      return StrFormat("%dx%d k=%d nnz=%lld learning_rate=%.9g lambda_p=%.9g "
                       "lambda_q=%.9g target_rmse=%.17g",
                       d.num_rows, d.num_cols, d.k,
                       static_cast<long long>(d.train_nnz),
                       static_cast<double>(d.learning_rate),
                       static_cast<double>(d.lambda_p),
                       static_cast<double>(d.lambda_q), d.target_rmse);
    };
    return Status::InvalidArgument(StrFormat(
        "checkpoint '%s' was written for a different dataset (stored %s, "
        "rebuilt %s from %zu replayed growth batches)",
        path.c_str(), describe(ckpt.dataset).c_str(),
        describe(fp).c_str(), growth.size()));
  }
  HSGD_RETURN_IF_ERROR((*session)->InstallCheckpoint(&*file));
  // Replayed appends marked their blocks dirty, but SaveCheckpoint only
  // saves at ingest-quiescent points: everything replayed is already
  // trained into the installed factors. Clear, or the first TrainDirty
  // after recovery would sweep blocks the uninterrupted run would not.
  std::fill((*session)->dirty_.begin(), (*session)->dirty_.end(),
            static_cast<uint8_t>(0));
  (*session)->pending_nnz_ = 0;
  return session;
}

Status Session::InstallCheckpoint(CheckpointReader* file) {
  const SessionCheckpoint& ckpt = file->state();
  if (ckpt.gpu_streams.size() != gpu_devices_.size()) {
    return Status::InvalidArgument(
        "checkpoint GPU count does not match the session's device fleet");
  }
  if (ckpt.epochs_run < 0 || ckpt.epochs_run > config_.max_epochs ||
      static_cast<size_t>(ckpt.epochs_run) != ckpt.trace.size()) {
    return Status::InvalidArgument(
        "checkpoint epoch counter disagrees with its trace");
  }
  if (ckpt.rating_count <= 0 || !std::isfinite(ckpt.rating_sum)) {
    return Status::InvalidArgument(
        "checkpoint growth state is corrupt (rating moments)");
  }
  HSGD_RETURN_IF_ERROR(file->ReadFactors(model_.get()));
  scheduler_->set_rng_state(ckpt.scheduler_rng);
  scheduler_->set_steal_counters(ckpt.stolen_by_gpus, ckpt.stolen_by_cpus);
  // Growth state: Init seeded growth_rng_ fresh and recomputed the
  // rating moments from dataset stats — close, but FP-different from the
  // incremental accumulation the saved session carried. Overwrite with
  // the exact persisted values so post-restore appends draw the same
  // cold-row factors the uninterrupted run would have.
  growth_rng_.RestoreState(ckpt.growth_rng);
  rating_sum_ = ckpt.rating_sum;
  rating_count_ = ckpt.rating_count;
  for (size_t g = 0; g < gpu_devices_.size(); ++g) {
    gpu_devices_[g]->set_stream_state(ckpt.gpu_streams[g]);
  }
  trace_.points = ckpt.trace;
  epochs_run_ = ckpt.epochs_run;
  reached_target_ = ckpt.reached_target;
  clock_ = ckpt.sim_clock;
  total_tasks_ = ckpt.block_tasks;
  gpu_nnz_ = ckpt.gpu_nnz;
  total_nnz_processed_ = ckpt.total_nnz_processed;
  duration_count_ = ckpt.duration_count;
  duration_sum_ = ckpt.duration_sum;
  duration_sumsq_ = ckpt.duration_sumsq;
  return Status::Ok();
}

}  // namespace hsgd
