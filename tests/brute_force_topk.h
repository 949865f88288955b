// Brute-force TopK reference for the test suite: scores every unrated
// item one at a time with Model::Predict, then sorts by descending score
// with ties broken by ascending item id. It shares no code with
// serve::BatchTopK (no TopKAccumulator, tile walk or score_block), so it
// can catch a bug in any of them. KernelOps documents score_block as
// bitwise equal to dot, so results compare bit for bit.

#pragma once

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/model.h"
#include "core/recommender.h"
#include "core/types.h"
#include "test_main.h"

namespace hsgd {
namespace testing {

/// The `k` best items for `user`, excluding every item `rated` lists for
/// that user. `ops` must be the kernel the code under test scored with.
inline std::vector<ScoredItem> BruteForceTopK(const Model& model,
                                              const Ratings& rated,
                                              int32_t user, int k,
                                              const KernelOps* ops = nullptr) {
  std::vector<char> excluded(static_cast<size_t>(model.num_cols()), 0);
  for (const Rating& r : rated) {
    if (r.u == user && r.v >= 0 && r.v < model.num_cols()) {
      excluded[static_cast<size_t>(r.v)] = 1;
    }
  }
  std::vector<ScoredItem> all;
  for (int32_t v = 0; v < model.num_cols(); ++v) {
    if (!excluded[static_cast<size_t>(v)]) {
      all.push_back({v, model.Predict(user, v, ops)});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const ScoredItem& a, const ScoredItem& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.item < b.item;
            });
  if (all.size() > static_cast<size_t>(k)) all.resize(static_cast<size_t>(k));
  return all;
}

}  // namespace testing
}  // namespace hsgd

// Expects `got` to equal `want` item for item, with bitwise-equal scores.
// A macro so a failure names the caller's line.
#define EXPECT_SAME_TOPK(got, want)                                       \
  do {                                                                    \
    const std::vector<::hsgd::ScoredItem>& _got = (got);                  \
    const std::vector<::hsgd::ScoredItem>& _want = (want);                \
    EXPECT_EQ(_got.size(), _want.size());                                 \
    for (size_t _i = 0; _i < _got.size() && _i < _want.size(); ++_i) {    \
      EXPECT_EQ(_got[_i].item, _want[_i].item);                           \
      EXPECT_EQ(std::memcmp(&_got[_i].score, &_want[_i].score,            \
                            sizeof(float)),                               \
                0);                                                       \
    }                                                                     \
  } while (0)
