// Bounded retry with exponential backoff and jitter, for real-world IO
// (checkpoint writes, WAL appends) — not simulated time.

#pragma once

#include <chrono>
#include <limits>
#include <thread>

#include "util/rng.h"
#include "util/status.h"

namespace hsgd {

struct RetryOptions {
  /// Total tries, including the first. 1 disables retrying.
  int max_attempts = 4;
  /// Wall-clock seconds slept before the second attempt.
  double initial_backoff = 0.005;
  double multiplier = 2.0;
  /// Each sleep is scaled by a uniform factor in [1-jitter, 1+jitter]
  /// drawn from `rng` (nothing is drawn when every attempt succeeds, so
  /// a fault-free run's RNG stream is untouched).
  double jitter = 0.2;
  double max_backoff = 0.25;
};

/// Runs `fn` (returning Status) until it succeeds, the attempt budget
/// is exhausted, OR `budget_s` wall-clock seconds have elapsed since
/// entry — whichever comes first; returns the final Status.
/// `on_retry(attempt, status)` is invoked before each sleep — pass a
/// no-op lambda if uninterested. The wall-clock budget is what callers
/// on a latency path (WAL appends) need: max-attempts alone can
/// oversleep arbitrarily under backoff growth. Each sleep is clamped to
/// the remaining budget; a retry whose sleep would land past the
/// deadline still gets its final attempt at the boundary (the deadline
/// bounds waiting, not work). `budget_s <= 0` allows the first attempt
/// only. The default budget is unbounded: no sleep is clamped and the
/// loop never stops early.
template <typename Fn, typename OnRetry>
Status RetryWithBackoff(
    const RetryOptions& options, Rng* rng, Fn&& fn, OnRetry&& on_retry,
    double budget_s = std::numeric_limits<double>::infinity()) {
  const int attempts = options.max_attempts < 1 ? 1 : options.max_attempts;
  // Elapsed time is subtracted from the budget in double seconds, so an
  // infinite budget stays infinite instead of overflowing a clock
  // duration.
  const auto start = std::chrono::steady_clock::now();
  double backoff = options.initial_backoff;
  Status status;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    status = fn();
    if (status.ok()) return status;
    if (attempt == attempts) break;
    const double remaining =
        budget_s - std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (remaining <= 0.0) break;
    on_retry(attempt, status);
    double sleep_s = backoff;
    if (rng != nullptr && options.jitter > 0.0) {
      sleep_s *= 1.0 + options.jitter * (2.0 * rng->NextDouble() - 1.0);
    }
    if (sleep_s > remaining) sleep_s = remaining;
    if (sleep_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
    }
    backoff *= options.multiplier;
    if (backoff > options.max_backoff) backoff = options.max_backoff;
  }
  return status;
}

}  // namespace hsgd
