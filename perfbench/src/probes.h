// Standalone layer probes. A traced run calls them after its measured
// phase, on the workload's own inputs, so they never perturb it.
#pragma once

#include <functional>

#include "core/dataset.h"
#include "core/kernels/kernels.h"
#include "core/model.h"
#include "report.h"
#include "serve/snapshot.h"

namespace perfbench {

/// kernels.sgd_updates_per_s (the resolved variant) and
/// kernels.sgd_scalar_updates_per_s (the plain baseline): single-thread
/// SgdUpdateBlock on a copy of `model` over a block-sized slice of
/// `ratings`.
void ProbeSgdKernels(const hsgd::Model& model, const hsgd::Ratings& ratings,
                     const hsgd::SgdParams& params, hsgd::KernelKind kernel,
                     Report* report);

/// session.eval_s: Rmse over train and test with a pool of the session's
/// size.
void ProbeEval(const hsgd::Model& model, const hsgd::Dataset& dataset,
               int eval_threads, hsgd::KernelKind kernel, Report* report);

/// kernels.score_* (ScoreBlockBatch over every item tile) and serve.topk_*
/// (BatchTopK), at batch 1 and 32 on distinct users.
void ProbeScoring(const hsgd::serve::FactorSnapshot& snapshot,
                  hsgd::KernelKind kernel, Report* report);

/// snapshot.build_s (median of three `build` calls) and
/// snapshot.validate_s (Validate on the last one).
void ProbeSnapshot(
    const std::function<hsgd::serve::SnapshotPtr()>& build,
    Report* report);

/// serve.acquire_ns: mean cost of one `acquire` call.
void ProbeAcquire(const std::function<hsgd::serve::SnapshotPtr()>& acquire,
                  Report* report);

}  // namespace perfbench
