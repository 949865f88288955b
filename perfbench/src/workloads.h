// The benchmark's three workloads. Each runs through the library's public
// API only, on inputs generated from the options' seed, and fills
// `report` with its metrics and output checks.
#pragma once

#include "harness.h"
#include "report.h"

namespace perfbench {

/// HSGD* on the Netflix-shaped synthetic preset: SGD kernel, simulator,
/// evaluation and checkpoints do the work; nothing is served.
void RunTrain(const Options& options, Report* report);

/// A static snapshot behind a two-shard RecServer: scoring, top-k,
/// batching and admission do the work; nothing is trained or published.
void RunServe(const Options& options, Report* report);

/// An OnlineTrainer ingesting an open-loop rating stream, training dirty
/// blocks and publishing into a live RecServer that answers queries.
void RunLive(const Options& options, Report* report);

}  // namespace perfbench
