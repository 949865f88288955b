#include "probes.h"

#include <algorithm>
#include <vector>

#include "core/recommender.h"
#include "harness.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

/// Runs `body` (which does `per_call` units of work) until at least
/// `min_s` has passed, three times, and returns the median seconds per
/// unit.
double SecondsPerUnit(const std::function<void()>& body, double per_call,
                      double min_s) {
  std::vector<double> trials;
  for (int trial = 0; trial < 3; ++trial) {
    int64_t calls = 0;
    const int64_t t0 = NowNs();
    double elapsed = 0.0;
    do {
      body();
      ++calls;
      elapsed = Seconds(t0, NowNs());
    } while (elapsed < min_s);
    trials.push_back(elapsed / (static_cast<double>(calls) * per_call));
  }
  return Median(trials);
}

hsgd::KernelKind Resolved(hsgd::KernelKind kernel) {
  auto resolved = hsgd::ResolveKernelKind(kernel);
  return resolved.ok() ? *resolved : hsgd::KernelKind::kScalar;
}

}  // namespace

void ProbeSgdKernels(const hsgd::Model& model, const hsgd::Ratings& ratings,
                     const hsgd::SgdParams& params, hsgd::KernelKind kernel,
                     Report* report) {
  // One block of a 32 x 32 grid, about what one scheduler task sweeps.
  const size_t n = std::min<size_t>(
      ratings.size(), std::max<size_t>(1024, ratings.size() / 1024));
  const size_t lo = (ratings.size() - n) / 2;
  const hsgd::Ratings slice(ratings.begin() + static_cast<int64_t>(lo),
                            ratings.begin() + static_cast<int64_t>(lo + n));
  const hsgd::SgdHyper hyper{params.learning_rate, params.lambda_p,
                             params.lambda_q};
  auto rate = [&](hsgd::KernelKind kind) {
    hsgd::Model copy(model.num_rows(), model.num_cols(), model.k());
    copy.SetDense(model.DenseP(), model.DenseQ());
    const hsgd::KernelOps& ops = hsgd::GetKernelOps(kind);
    const double s = SecondsPerUnit(
        [&] { hsgd::SgdUpdateBlock(&copy, slice, hyper, &ops); },
        static_cast<double>(n), 0.1);
    return 1.0 / s;
  };
  report->Layer("kernels.sgd_updates_per_s", rate(Resolved(kernel)),
                "single thread, " + std::to_string(n) + "-rating block");
  report->Layer("kernels.sgd_scalar_updates_per_s",
                rate(hsgd::KernelKind::kScalar), "scalar baseline");
}

void ProbeEval(const hsgd::Model& model, const hsgd::Dataset& dataset,
               int eval_threads, hsgd::KernelKind kernel, Report* report) {
  hsgd::ThreadPool pool(static_cast<size_t>(eval_threads));
  const hsgd::KernelOps& ops = hsgd::GetKernelOps(Resolved(kernel));
  std::vector<double> trials;
  for (int trial = 0; trial < 3; ++trial) {
    const int64_t t0 = NowNs();
    hsgd::Rmse(model, dataset.train, &pool, &ops);
    if (!dataset.test.empty()) hsgd::Rmse(model, dataset.test, &pool, &ops);
    trials.push_back(Seconds(t0, NowNs()));
  }
  report->Layer("session.eval_s", Median(trials),
                "probe: Rmse over train+test, pool of " +
                    std::to_string(eval_threads));
}

void ProbeScoring(const hsgd::serve::FactorSnapshot& snapshot,
                  hsgd::KernelKind kernel, Report* report) {
  const hsgd::KernelOps& ops = hsgd::GetKernelOps(Resolved(kernel));
  const int32_t num_users = snapshot.num_users();
  const int32_t num_items = snapshot.num_items();
  uint32_t state = 12345;
  auto fresh_users = [&](int b) {
    std::vector<int32_t> users(static_cast<size_t>(b));
    for (int32_t& u : users) {
      u = static_cast<int32_t>(
          Uniform(&state, static_cast<uint32_t>(num_users)));
    }
    return users;
  };
  std::vector<float> out;
  double sweep_b32 = 0.0;
  for (int b : {1, 32}) {
    out.resize(static_cast<size_t>(b) * hsgd::kTopKTile);
    std::vector<const float*> rows(static_cast<size_t>(b));
    const double s = SecondsPerUnit(
        [&] {
          const auto users = fresh_users(b);
          for (int i = 0; i < b; ++i) rows[i] = snapshot.UserRow(users[i]);
          for (int32_t first = 0; first < num_items;
               first += hsgd::kTopKTile) {
            const int32_t count = std::min(hsgd::kTopKTile, num_items - first);
            hsgd::ScoreBlockBatch(ops, rows.data(), b, snapshot.q_data(),
                                  snapshot.stride(), snapshot.k(), first,
                                  count, out.data());
          }
        },
        b, 0.1);
    report->Layer("kernels.score_sweep_us_per_query_b" + std::to_string(b),
                  s * 1e6, "probe: ScoreBlockBatch over every item tile");
    if (b == 32) sweep_b32 = s * 1e6;
  }
  report->Layer("kernels.score_bytes_per_query",
                static_cast<double>(num_items) * snapshot.stride() *
                    sizeof(float),
                "computed: item factors swept per query at batch 1");

  std::vector<float> scratch;
  for (int b : {1, 32}) {
    std::vector<hsgd::serve::TopKQuery> queries(static_cast<size_t>(b));
    const double s = SecondsPerUnit(
        [&] {
          const auto users = fresh_users(b);
          for (int i = 0; i < b; ++i) queries[i] = {users[i], 10};
          hsgd::serve::BatchTopK(snapshot, queries.data(), queries.size(),
                                 &ops, &scratch);
        },
        b, 0.1);
    report->Layer("serve.topk_us_per_query_b" + std::to_string(b), s * 1e6,
                  "probe: BatchTopK k=10 on distinct users");
    if (b == 32) {
      report->Layer("serve.topk_select_us_per_query", s * 1e6 - sweep_b32,
                    "topk_b32 - score_sweep_b32");
    }
  }
}

void ProbeSnapshot(
    const std::function<hsgd::serve::SnapshotPtr()>& build,
    Report* report) {
  std::vector<double> trials;
  hsgd::serve::SnapshotPtr snapshot;
  for (int trial = 0; trial < 3; ++trial) {
    snapshot.reset();
    const int64_t t0 = NowNs();
    snapshot = build();
    trials.push_back(Seconds(t0, NowNs()));
  }
  report->Layer("snapshot.build_s", Median(trials), "probe, median of 3");
  if (snapshot == nullptr) {
    report->Check(false, "snapshot probe built a snapshot");
    return;
  }
  const int64_t t0 = NowNs();
  const hsgd::Status valid = snapshot->Validate();
  report->Layer("snapshot.validate_s", Seconds(t0, NowNs()),
                "probe: Validate()");
  report->Check(valid.ok(), "probe snapshot validates");
}

void ProbeAcquire(const std::function<hsgd::serve::SnapshotPtr()>& acquire,
                  Report* report) {
  int64_t empty = 0;
  const double s = SecondsPerUnit(
      [&] {
        for (int i = 0; i < 1000; ++i) empty += acquire() == nullptr;
      },
      1000, 0.05);
  report->Layer("serve.acquire_ns", s * 1e9, "probe: CurrentSnapshot()");
  report->Check(empty == 0, "CurrentSnapshot() always returns a snapshot");
}

}  // namespace perfbench
