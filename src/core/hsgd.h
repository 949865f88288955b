// Umbrella header for the hsgd library: datasets, the factor model and
// real SGD/RMSE kernels, the device simulators, the block schedulers, and
// the Session engine that ties them together (plus checkpointing and the
// top-k selection blocks the serving path scores with). The bench drivers
// include this (plus individual sim/sched headers when they poke at
// internals).
//
// Layering:
//   util/  - status, logging, strings, cli, rng, stopwatch, thread pool,
//            cpu feature detection, aligned alloc
//   core/  - datasets, model, session engine + checkpoint, top-k
//            selection (this directory)
//   core/kernels/ - scalar/AVX2/AVX-512 SGD + scoring kernels behind a
//            runtime dispatch table, and the rate calibrator that feeds
//            measured speeds back into sim/'s cost models
//   sim/   - simulated CPU/GPU devices, PCIe link, profiler + cost models
//   sched/ - grid division, blocked matrix, uniform & star schedulers

#pragma once

#include "core/checkpoint.h"
#include "core/dataset.h"
#include "core/kernels/calibrator.h"
#include "core/kernels/kernels.h"
#include "core/model.h"
#include "core/recommender.h"
#include "core/session.h"
#include "core/types.h"
#include "sched/blocked_matrix.h"
#include "sched/scheduler.h"
#include "sim/device_spec.h"
#include "sim/profiler.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/thread_pool.h"
