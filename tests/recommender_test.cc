// TopK edge cases on hand-built factor models, answered by
// serve::BatchTopK over a FactorSnapshot: k beyond the catalog, a user
// with every item rated, invalid queries, deterministic tie-breaking and
// duplicate or out-of-range exclusion entries — the hand-checkable
// counterpart of the brute-force agreement checks in serve_test and
// session_test. Also checks RatedIndex::Merge against RatedIndex::Build.

#include <utility>
#include <vector>

#include "core/model.h"
#include "core/recommender.h"
#include "serve/snapshot.h"
#include "test_main.h"

namespace hsgd {
namespace {

using serve::FactorSnapshot;
using serve::SnapshotPtr;
using serve::TopKQuery;

/// A snapshot whose scores are trivially predictable: p_u = (1, 0),
/// q_v = (weight_v, 0), so score(u, v) == weight_v for every user.
SnapshotPtr WeightedSnapshot(int32_t num_users,
                             const std::vector<float>& weights,
                             const Ratings& rated = {}) {
  Model model(num_users, static_cast<int32_t>(weights.size()), /*k=*/2);
  for (int32_t u = 0; u < num_users; ++u) model.Row(u)[0] = 1.0f;
  for (size_t v = 0; v < weights.size(); ++v) {
    model.Col(static_cast<int32_t>(v))[0] = weights[v];
  }
  auto snap = FactorSnapshot::FromModel(model, rated, /*version=*/1);
  EXPECT_TRUE(snap.ok());
  return snap.ok() ? *snap : nullptr;
}

/// One TopK query as a one-query batch.
StatusOr<std::vector<ScoredItem>> TopK(const FactorSnapshot& snapshot,
                                       int32_t user, int k) {
  const TopKQuery query{user, k};
  return std::move(serve::BatchTopK(snapshot, &query, 1).front());
}

void TestKLargerThanCatalog() {
  // User 0 already rated item 1.
  SnapshotPtr snap =
      WeightedSnapshot(2, {0.5f, 2.0f, 1.0f, 3.0f}, {{0, 1, 5.0f}});
  if (snap == nullptr) return;

  auto top = TopK(*snap, 0, 100);
  EXPECT_TRUE(top.ok());
  if (!top.ok()) return;
  // Everything unrated comes back, highest score first.
  EXPECT_EQ(top->size(), 3u);
  if (top->size() != 3u) return;
  EXPECT_EQ((*top)[0].item, 3);
  EXPECT_EQ((*top)[1].item, 2);
  EXPECT_EQ((*top)[2].item, 0);
  // A user with no exclusions gets the full catalog.
  auto all = TopK(*snap, 1, 100);
  EXPECT_TRUE(all.ok());
  if (all.ok()) EXPECT_EQ(all->size(), 4u);
}

void TestUserWithAllItemsRated() {
  SnapshotPtr snap = WeightedSnapshot(
      2, {1.0f, 2.0f, 3.0f}, {{0, 0, 1.0f}, {0, 1, 1.0f}, {0, 2, 1.0f}});
  if (snap == nullptr) return;
  EXPECT_EQ(snap->NumRated(0), 3);

  // Nothing left to recommend: an empty result, not an error.
  auto top = TopK(*snap, 0, 5);
  EXPECT_TRUE(top.ok());
  if (top.ok()) EXPECT_EQ(top->size(), 0u);
  // The other user is unaffected.
  auto other = TopK(*snap, 1, 2);
  EXPECT_TRUE(other.ok());
  if (other.ok()) EXPECT_EQ(other->size(), 2u);
}

void TestInvalidQueries() {
  SnapshotPtr snap = WeightedSnapshot(3, {1.0f, 2.0f});
  if (snap == nullptr) return;
  for (const TopKQuery& bad :
       {TopKQuery{-1, 1}, TopKQuery{3, 1}, TopKQuery{0, 0},
        TopKQuery{0, -4}}) {
    EXPECT_TRUE(TopK(*snap, bad.user, bad.k).status().code() ==
                StatusCode::kInvalidArgument);
  }
  // An invalid query fails alone; the rest of its batch is answered.
  const TopKQuery mixed[] = {{0, 1}, {3, 1}, {2, 2}};
  auto results = serve::BatchTopK(*snap, mixed, 3);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  if (results[2].ok()) EXPECT_EQ(results[2]->size(), 2u);
  // Out-of-range users have no exclusion list.
  EXPECT_EQ(snap->NumRated(-1), 0);
  EXPECT_EQ(snap->NumRated(3), 0);
}

void TestDeterministicTieBreaks() {
  // All scores equal: the ranking must fall back to ascending item id,
  // both inside the returned window and at the eviction boundary.
  SnapshotPtr flat =
      WeightedSnapshot(1, {7.0f, 7.0f, 7.0f, 7.0f, 7.0f, 7.0f});
  if (flat == nullptr) return;
  auto top = TopK(*flat, 0, 4);
  EXPECT_TRUE(top.ok());
  if (top.ok()) {
    EXPECT_EQ(top->size(), 4u);
    for (size_t i = 0; i < 4 && i < top->size(); ++i) {
      EXPECT_EQ((*top)[i].item, static_cast<int32_t>(i));
    }
  }

  // Mixed ties: equal-score runs stay id-ordered among themselves.
  SnapshotPtr mixed = WeightedSnapshot(1, {2.0f, 1.0f, 2.0f, 3.0f, 1.0f});
  if (mixed == nullptr) return;
  auto ranked = TopK(*mixed, 0, 5);
  EXPECT_TRUE(ranked.ok());
  if (ranked.ok()) {
    const std::vector<int32_t> expected = {3, 0, 2, 1, 4};
    EXPECT_EQ(ranked->size(), expected.size());
    for (size_t i = 0; i < expected.size() && i < ranked->size(); ++i) {
      EXPECT_EQ((*ranked)[i].item, expected[i]);
    }
  }
}

void TestDuplicateAndOutOfRangeExclusions() {
  // Duplicate observations collapse; entries outside the model's
  // dimensions are ignored rather than crashing.
  SnapshotPtr snap = WeightedSnapshot(
      2, {1.0f, 2.0f, 3.0f},
      {{0, 2, 1.0f}, {0, 2, 4.0f}, {0, 99, 1.0f}, {99, 1, 1.0f},
       {-3, 0, 1.0f}, {1, -7, 1.0f}});
  if (snap == nullptr) return;
  EXPECT_EQ(snap->NumRated(0), 1);
  EXPECT_EQ(snap->NumRated(1), 0);
  auto top = TopK(*snap, 0, 3);
  EXPECT_TRUE(top.ok());
  if (top.ok()) {
    EXPECT_EQ(top->size(), 2u);
    if (top->size() == 2u) {
      EXPECT_EQ((*top)[0].item, 1);
      EXPECT_EQ((*top)[1].item, 0);
    }
  }
}

/// Tiny LCG for seeded ratings (no RNG state shared with the library).
int32_t NextId(uint32_t* state, int32_t bound) {
  *state = *state * 1664525u + 1013904223u;
  return static_cast<int32_t>((*state >> 8) % static_cast<uint32_t>(bound));
}

// Merging deltas one at a time must give exactly the index a single
// Build over every rating so far gives: same offsets, same items.
void TestRatedIndexMergeMatchesBuild() {
  struct Step {
    int32_t users;  // catalog after this step's growth
    int32_t items;
    int fresh;      // seeded in-range ratings in the delta; 0 = empty delta
  };
  const Step steps[] = {
      {0, 12, 0},   {40, 30, 500}, {40, 30, 60},  {40, 30, 0},
      {55, 30, 200}, {55, 41, 200}, {70, 50, 1},  {70, 50, 3000},
      {71, 50, 0},  {90, 64, 40},
  };
  uint32_t state = 17;
  Ratings all;  // every in-range rating so far, duplicates included
  // The first base indexes zero users.
  RatedIndex merged = RatedIndex::Build(all, 0, 12);
  EXPECT_EQ(merged.num_users(), 0);
  // The same chain merged into reused storage, as OnlineTrainer does:
  // each step overwrites the index from two steps back, which holds no
  // more entries than the new one.
  RatedIndex recycled[2] = {merged, RatedIndex{}};
  // And an unrelated index larger than any step's, so entries past the
  // new end are left over.
  Ratings big;
  for (int i = 0; i < 8000; ++i) {
    big.push_back({NextId(&state, 150), NextId(&state, 90), 1.0f});
  }
  const RatedIndex larger = RatedIndex::Build(big, 150, 90);
  int step_index = 0;
  for (const Step& step : steps) {
    Ratings delta;
    for (int i = 0; i < step.fresh; ++i) {
      delta.push_back({NextId(&state, step.users),
                       NextId(&state, step.items), 1.0f});
    }
    if (step.fresh > 0) {
      // A duplicate inside the delta, with a different rating value.
      delta.push_back({delta.front().u, delta.front().v, 5.0f});
      if (!all.empty()) {
        // A rating the base already indexes.
        delta.push_back(all[static_cast<size_t>(
            NextId(&state, static_cast<int32_t>(all.size())))]);
      }
    }
    all.insert(all.end(), delta.begin(), delta.end());
    if (step.fresh > 0) {
      // Out-of-range ids are dropped. The ones at the boundary become
      // valid once the catalog grows, so they stay out of `all`: a
      // dropped rating must not reappear later.
      for (const Rating& bad :
           {Rating{-1, 0, 1.0f}, Rating{0, -2, 1.0f},
            Rating{step.users, 0, 1.0f}, Rating{0, step.items, 1.0f},
            Rating{step.users + 7, step.items + 7, 1.0f}}) {
        delta.push_back(bad);
      }
    }
    RatedIndex& into = recycled[(step_index + 1) % 2];
    RatedIndex::Merge(recycled[step_index % 2], delta, step.users,
                      step.items, &into);
    RatedIndex over_larger = larger;
    RatedIndex::Merge(merged, delta, step.users, step.items, &over_larger);
    merged = RatedIndex::Merge(merged, delta, step.users, step.items);
    const RatedIndex built = RatedIndex::Build(all, step.users, step.items);
    EXPECT_EQ(merged.num_users(), step.users);
    EXPECT_TRUE(merged.offsets == built.offsets);
    EXPECT_TRUE(merged.items == built.items);
    for (const RatedIndex* reused : {&into, &over_larger}) {
      EXPECT_TRUE(reused->offsets == built.offsets);
      EXPECT_TRUE(reused->items == built.items);
    }
    ++step_index;
  }
  EXPECT_LT(0, static_cast<int64_t>(merged.items.size()));
}


// Random bases and deltas: Merge(Build(base), delta) must equal
// Build(base + delta) exactly, whatever runs of users the delta leaves
// untouched. Covers empty deltas, deltas touching the first or the last
// user, and catalogs that grow past the base (new users with and
// without ratings).
void TestRatedIndexMergeRandomMatchesBuild() {
  uint32_t state = 91;
  RatedIndex reused;  // merged into again and again, as a publish does
  for (int trial = 0; trial < 300; ++trial) {
    const int32_t base_users = 1 + NextId(&state, 60);
    const int32_t users = base_users + NextId(&state, 3) * NextId(&state, 8);
    const int32_t items = 1 + NextId(&state, 40);
    Ratings base;
    const int base_count = NextId(&state, 4 * base_users);
    for (int i = 0; i < base_count; ++i) {
      base.push_back(
          {NextId(&state, base_users), NextId(&state, items), 1.0f});
    }
    Ratings delta;
    const int shape = trial % 5;  // 0: empty delta
    const int delta_count = shape == 0 ? 0 : NextId(&state, 1 + 3 * shape);
    for (int i = 0; i < delta_count; ++i) {
      delta.push_back({NextId(&state, users), NextId(&state, items), 2.0f});
    }
    if (shape == 2) delta.push_back({0, NextId(&state, items), 2.0f});
    if (shape == 3) {
      delta.push_back({users - 1, NextId(&state, items), 2.0f});
    }
    if (shape == 4 && users > base_users) {
      delta.push_back({base_users, NextId(&state, items), 2.0f});
    }
    Ratings all = base;
    all.insert(all.end(), delta.begin(), delta.end());
    const RatedIndex built = RatedIndex::Build(all, users, items);
    const RatedIndex base_index = RatedIndex::Build(base, base_users, items);
    const RatedIndex merged =
        RatedIndex::Merge(base_index, delta, users, items);
    EXPECT_TRUE(merged.offsets == built.offsets);
    EXPECT_TRUE(merged.items == built.items);
    RatedIndex::Merge(base_index, delta, users, items, &reused);
    EXPECT_TRUE(reused.offsets == built.offsets);
    EXPECT_TRUE(reused.items == built.items);
  }
}

}  // namespace

void RunAllTests() {
  TestKLargerThanCatalog();
  TestUserWithAllItemsRated();
  TestInvalidQueries();
  TestDeterministicTieBreaks();
  TestDuplicateAndOutOfRangeExclusions();
  TestRatedIndexMergeMatchesBuild();
  TestRatedIndexMergeRandomMatchesBuild();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
