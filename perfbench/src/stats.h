// Summary statistics the benchmark reports: medians, quartiles, and tail
// percentiles that only claim what the sample supports.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty sample.
double Median(std::vector<double> values);

/// First, second and third quartile with the same "exclusive" method as
/// Python's statistics.quantiles(values, n=4), so the numbers match the
/// steadiness script's. Needs at least two values; a single value is
/// returned as all three quartiles and an empty sample as zeros.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles ComputeQuartiles(std::vector<double> values);

/// A percentile as reported: the value, the percentile it actually is,
/// and the sample count behind it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  int64_t samples = 0;
  bool ok = false;  // false when fewer than kTailBeyond + 1 samples
};

/// The rule every reported percentile follows: at least this many samples
/// must lie beyond it.
inline constexpr int64_t kTailBeyond = 10;

/// Nearest-rank percentile `requested` (0 < requested < 100) of `values`,
/// lowered to the highest percentile that still has kTailBeyond samples
/// strictly beyond it when the sample is too small for the request.
Tail TailPercentile(std::vector<double> values, double requested);

}  // namespace perfbench
