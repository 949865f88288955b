// Helpers shared by the benches that serve queries (bench_serving,
// bench_stream, bench_chaos_serving): a tiny deterministic generator for
// query mixes and factor fills, and the serving invariants every
// response is checked against.

#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/recommender.h"
#include "serve/server.h"

namespace hsgd::bench {

/// One step of a 32-bit linear congruential generator (Numerical
/// Recipes constants): cheap, seedable and identical on every platform.
inline uint32_t Lcg(uint32_t* state) {
  *state = *state * 1664525u + 1013904223u;
  return *state;
}

/// True iff `response` satisfies the serving invariants: its version
/// inside the published window [1, max_version], at most k items, scores
/// finite and sorted descending with ties by ascending item id.
inline bool ResponseIntact(const serve::TopKResponse& response,
                           uint64_t max_version, int k) {
  if (response.snapshot_version < 1 ||
      response.snapshot_version > max_version) {
    return false;
  }
  if (response.items.size() > static_cast<size_t>(k)) return false;
  for (size_t i = 0; i < response.items.size(); ++i) {
    if (!std::isfinite(response.items[i].score)) return false;
    if (i == 0) continue;
    const ScoredItem& a = response.items[i - 1];
    const ScoredItem& b = response.items[i];
    if (!(a.score > b.score || (a.score == b.score && a.item < b.item))) {
      return false;
    }
  }
  return true;
}

}  // namespace hsgd::bench
