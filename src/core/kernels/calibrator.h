// KernelCalibrator: micro-measures the real update rate of a kernel
// variant on THIS machine, so the device simulator can plan with measured
// hardware speeds instead of the paper's 2021 testbed numbers.
//
// The simulator's CpuDeviceSpec expresses CPU speed as
// updates_per_sec_k128 and scales it by 128/k for other ranks; the
// calibrator therefore measures at the caller's configured k and converts
// back to the k=128 convention, so the spec override is consistent with
// how CpuDevice will re-derive the rate. Wired up as --calibrate in the
// benches, which measure once per rank per run and set the result as
// HardwareConfig::cpu_updates_per_sec_k128 of every session at that rank.
// Checkpoints store that rate like any other config value, so a resumed
// run never re-measures.

#pragma once

#include "core/kernels/kernels.h"

namespace hsgd {

struct KernelCalibration {
  KernelKind kernel = KernelKind::kScalar;
  int k = 0;
  /// Measured single-thread SGD update rate at rank `k` (points/second).
  double updates_per_sec = 0.0;
  /// The same rate expressed in the simulator's k=128 convention
  /// (CpuDeviceSpec::updates_per_sec_k128 = updates_per_sec * k / 128).
  double updates_per_sec_k128 = 0.0;
};

/// Measure `kind` (must be resolved and supported) at rank `k`: repeated
/// fused-update sweeps over a synthetic block sized to dodge both cache
/// residency games and timer noise, timed until at least `min_seconds`
/// of wall clock accumulates. Deterministic inputs, nondeterministic
/// wall-clock — calibration is an explicit opt-in that trades trace
/// reproducibility across machines for fidelity to the one you are on.
KernelCalibration CalibrateKernel(KernelKind kind, int k,
                                  double min_seconds = 0.05);

}  // namespace hsgd
