#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const int64_t ld = static_cast<int64_t>(values.size());
  if (ld == 1) {
    q.q1 = q.q2 = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(method="exclusive") with n = 4, including its
  // clamp of the rank to [1, ld - 1].
  const int64_t m = ld + 1;
  double out[3];
  for (int64_t i = 1; i <= 3; ++i) {
    int64_t j = i * m / 4;
    j = std::clamp<int64_t>(j, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    out[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.q2 = out[1];
  q.q3 = out[2];
  return q;
}

Tail TailPercentile(std::vector<double> values, double requested) {
  Tail tail;
  const int64_t n = static_cast<int64_t>(values.size());
  tail.samples = n;
  if (n <= kTailBeyond) return tail;
  std::sort(values.begin(), values.end());
  // Nearest rank, 1-based: the smallest r with r >= p/100 * n.
  int64_t rank = static_cast<int64_t>(
      std::ceil(requested / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  rank = std::min(rank, n - kTailBeyond);
  tail.value = values[rank - 1];
  tail.percentile = std::min(
      requested, 100.0 * static_cast<double>(rank) / static_cast<double>(n));
  tail.ok = true;
  return tail;
}

}  // namespace perfbench
