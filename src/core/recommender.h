// Top-k selection building blocks shared by the serving path
// (serve/snapshot.h's BatchTopK): the scored-item result type, the item
// tile width, the per-user rated-item exclusion index, and the streaming
// accumulator that turns scored tiles into a ranked result. None of it
// depends on the trainer or the simulators.

#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace hsgd {

struct ScoredItem {
  int32_t item = 0;
  float score = 0.0f;
};

/// The item-tile width BatchTopK scores through score_block: a tile of Q
/// rows stays cache-resident while every query of a batch consumes it.
inline constexpr int32_t kTopKTile = 1024;

/// CSR-style per-user exclusion lists: items of user u live in
/// items[offsets[u] .. offsets[u + 1]), sorted ascending, duplicates
/// collapsed. Entries outside [0, num_users) x [0, num_items) are
/// dropped. Built once, then shared read-only by any number of queries.
struct RatedIndex {
  std::vector<int64_t> offsets;
  std::vector<int32_t> items;

  static RatedIndex Build(const Ratings& rated, int32_t num_users,
                          int32_t num_items);

  /// The index of `base`'s ratings plus `added`, in one sequential pass
  /// over `base`: exactly Build(base's ratings + added, num_users,
  /// num_items), at the cost of sorting `added` and copying `base`.
  /// Catalogs only grow: `num_users` must be at least base.num_users()
  /// (checked), and `base` must index at most `num_items` items.
  static RatedIndex Merge(const RatedIndex& base, Ratings added,
                          int32_t num_users, int32_t num_items);

  /// Merge into `out`, overwriting it but keeping its buffers: when
  /// `out` is a retired index at least as large, nothing is allocated or
  /// faulted in. A reused buffer that must grow gets an eighth of
  /// headroom, so an index recycled on every publish reallocates once
  /// per eighth of growth. `out` must not be `base` (checked).
  static void Merge(const RatedIndex& base, Ratings added, int32_t num_users,
                    int32_t num_items, RatedIndex* out);

  int32_t num_users() const {
    return static_cast<int32_t>(offsets.empty() ? 0 : offsets.size() - 1);
  }
  /// Distinct items `user` has rated; 0 for out-of-range users.
  int64_t NumRated(int32_t user) const;
  const int32_t* Begin(int32_t user) const {
    return items.data() + offsets[static_cast<size_t>(user)];
  }
  const int32_t* End(int32_t user) const {
    return items.data() + offsets[static_cast<size_t>(user) + 1];
  }
};

/// Streaming top-k selection for ONE query: feed each scored item tile in
/// ascending-item order via Consume, then Finish for the ranked result.
/// Skips the query's sorted exclusion list with a forward cursor, keeps
/// the best k candidates in a bounded heap, and breaks score ties toward
/// the smaller item id. Each query owns its accumulator, so BatchTopK can
/// interleave the tiles of many queries.
class TopKAccumulator {
 public:
  /// `excl_begin/excl_end` delimit the query's sorted exclusion list
  /// (borrowed; may be null/null for none). `k` must be positive.
  TopKAccumulator(int k, const int32_t* excl_begin, const int32_t* excl_end);

  /// Offer items [tile_begin, tile_begin + count) with their scores.
  /// Tiles must arrive in ascending, non-overlapping item order.
  void Consume(int32_t tile_begin, int32_t count, const float* scores);

  /// The ranked result: descending score, ties by ascending item id.
  std::vector<ScoredItem> Finish();

 private:
  /// True when `a` outranks `b`. As the heap comparator this keeps the
  /// WORST retained candidate on top, so a better score evicts it in
  /// O(log k).
  static bool Better(const ScoredItem& a, const ScoredItem& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.item < b.item;
  }

  int k_;
  const int32_t* excl_cursor_;
  const int32_t* excl_end_;
  /// Binary heap ordered by Better (worst retained candidate at front).
  std::vector<ScoredItem> heap_;
};

}  // namespace hsgd
