// Bounded retry with exponential backoff and jitter, for real-world IO
// (checkpoint writes, WAL appends) — not simulated time.

#pragma once

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "util/rng.h"
#include "util/status.h"

namespace hsgd {

/// Total tries, including the first.
constexpr int kRetryMaxAttempts = 4;
/// Wall-clock seconds slept before the second attempt; each later sleep
/// doubles, so a full schedule sleeps 5, 10 and 20 ms.
constexpr double kRetryInitialBackoffS = 0.005;
constexpr double kRetryBackoffMultiplier = 2.0;
/// Each sleep is scaled by a uniform factor in [1-jitter, 1+jitter]
/// drawn from the caller's rng (nothing is drawn when every attempt
/// succeeds, so a fault-free run's RNG stream is untouched).
constexpr double kRetryJitter = 0.2;

/// Runs `fn` (returning Status) until it succeeds, kRetryMaxAttempts
/// attempts have run, OR `budget_s` wall-clock seconds have elapsed
/// since entry — whichever comes first; returns the final Status.
/// `rng` (not null) draws one jitter value per retry.
/// `on_retry(attempt, status)` is invoked before each sleep — pass a
/// no-op lambda if uninterested. The wall-clock budget is what callers
/// on a latency path (WAL appends) need: the attempt count bounds the
/// sleeps but not the time slow attempts take. Each sleep is clamped to
/// the remaining budget; a retry whose sleep would land past the
/// deadline still gets its final attempt at the boundary (the deadline
/// bounds waiting, not work). `budget_s <= 0` allows the first attempt
/// only. The default budget is unbounded: no sleep is clamped and the
/// loop never stops early.
template <typename Fn, typename OnRetry>
Status RetryWithBackoff(
    Rng* rng, Fn&& fn, OnRetry&& on_retry,
    double budget_s = std::numeric_limits<double>::infinity()) {
  // Elapsed time is subtracted from the budget in double seconds, so an
  // infinite budget stays infinite instead of overflowing a clock
  // duration.
  const auto start = std::chrono::steady_clock::now();
  double backoff = kRetryInitialBackoffS;
  Status status;
  for (int attempt = 1; attempt <= kRetryMaxAttempts; ++attempt) {
    status = fn();
    if (status.ok()) return status;
    if (attempt == kRetryMaxAttempts) break;
    const double remaining =
        budget_s - std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (remaining <= 0.0) break;
    on_retry(attempt, status);
    const double sleep_s =
        backoff * (1.0 + kRetryJitter * (2.0 * rng->NextDouble() - 1.0));
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(sleep_s, remaining)));
    backoff *= kRetryBackoffMultiplier;
  }
  return status;
}

}  // namespace hsgd
