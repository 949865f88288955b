#include "core/recommender.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace hsgd {

namespace {

bool OutOfRange(const Rating& r, int32_t num_users, int32_t num_items) {
  return r.u < 0 || r.u >= num_users || r.v < 0 || r.v >= num_items;
}

/// Grow `v`'s capacity to at least `need`: exactly for a fresh buffer,
/// with an eighth of headroom for a reused one that has to grow.
template <typename T>
void ReserveWithHeadroom(std::vector<T>* v, size_t need) {
  if (v->capacity() >= need) return;
  v->reserve(v->capacity() == 0 ? need : need + need / 8);
}

}  // namespace

RatedIndex RatedIndex::Build(const Ratings& rated, int32_t num_users,
                             int32_t num_items) {
  RatedIndex index;
  // Counting sort into CSR: one pass for per-user counts, one to place.
  index.offsets.assign(static_cast<size_t>(num_users) + 1, 0);
  for (const Rating& r : rated) {
    if (OutOfRange(r, num_users, num_items)) continue;
    ++index.offsets[static_cast<size_t>(r.u) + 1];
  }
  for (size_t u = 1; u < index.offsets.size(); ++u) {
    index.offsets[u] += index.offsets[u - 1];
  }
  index.items.resize(static_cast<size_t>(index.offsets.back()));
  std::vector<int64_t> cursor(index.offsets.begin(),
                              index.offsets.end() - 1);
  for (const Rating& r : rated) {
    if (OutOfRange(r, num_users, num_items)) continue;
    index.items[static_cast<size_t>(cursor[static_cast<size_t>(r.u)]++)] =
        r.v;
  }
  // Sort each user's list and drop duplicate (u, v) observations, so
  // NumRated reports distinct items and matches what TopK excludes.
  size_t write = 0;
  int64_t read_begin = 0;
  for (int32_t u = 0; u < num_users; ++u) {
    const int64_t read_end = index.offsets[static_cast<size_t>(u) + 1];
    std::sort(index.items.begin() + read_begin,
              index.items.begin() + read_end);
    const size_t unique_begin = write;
    for (int64_t i = read_begin; i < read_end; ++i) {
      const int32_t item = index.items[static_cast<size_t>(i)];
      if (write == unique_begin || index.items[write - 1] != item) {
        index.items[write++] = item;
      }
    }
    read_begin = read_end;
    index.offsets[static_cast<size_t>(u) + 1] =
        static_cast<int64_t>(write);
  }
  index.items.resize(write);
  return index;
}

RatedIndex RatedIndex::Merge(const RatedIndex& base, Ratings added,
                             int32_t num_users, int32_t num_items) {
  RatedIndex index;
  Merge(base, std::move(added), num_users, num_items, &index);
  return index;
}

void RatedIndex::Merge(const RatedIndex& base, Ratings added,
                       int32_t num_users, int32_t num_items,
                       RatedIndex* out) {
  HSGD_CHECK(num_users >= base.num_users());
  HSGD_CHECK(out != &base);
  added.erase(std::remove_if(added.begin(), added.end(),
                             [&](const Rating& r) {
                               return OutOfRange(r, num_users, num_items);
                             }),
              added.end());
  std::sort(added.begin(), added.end(),
            [](const Rating& a, const Rating& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  ReserveWithHeadroom(&out->offsets, static_cast<size_t>(num_users) + 1);
  out->offsets.assign(static_cast<size_t>(num_users) + 1, 0);
  out->items.clear();
  ReserveWithHeadroom(&out->items, base.items.size() + added.size());
  std::vector<int32_t>& items = out->items;
  std::vector<int64_t>& offsets = out->offsets;
  const int32_t base_users = base.num_users();
  auto next = added.cbegin();
  int32_t u = 0;
  while (u < num_users) {
    // Users [u, stop) have nothing new. The known ones among them keep
    // their lists, which are contiguous in `base`: one insert copies the
    // whole run, and their offsets move by one delta. Users past `base`
    // get empty lists.
    const int32_t stop = next == added.cend() ? num_users : next->u;
    const int32_t known_end = std::min(stop, base_users);
    if (u < known_end) {
      const int64_t from = base.offsets[static_cast<size_t>(u)];
      const int64_t delta = static_cast<int64_t>(items.size()) - from;
      items.insert(items.end(), base.items.begin() + from,
                   base.items.begin() +
                       base.offsets[static_cast<size_t>(known_end)]);
      for (; u < known_end; ++u) {
        offsets[static_cast<size_t>(u) + 1] =
            base.offsets[static_cast<size_t>(u) + 1] + delta;
      }
    }
    for (; u < stop; ++u) {
      offsets[static_cast<size_t>(u) + 1] =
          static_cast<int64_t>(items.size());
    }
    if (u == num_users) break;
    // User u has new ratings: merge two sorted runs, collapsing equal
    // items into one.
    const int32_t* old = u < base_users ? base.Begin(u) : nullptr;
    const int32_t* old_end = u < base_users ? base.End(u) : nullptr;
    const size_t begin = items.size();
    auto push = [&](int32_t item) {
      if (items.size() == begin || items.back() != item) {
        items.push_back(item);
      }
    };
    for (; next != added.cend() && next->u == u; ++next) {
      while (old != old_end && *old < next->v) push(*old++);
      push(next->v);
    }
    while (old != old_end) push(*old++);
    offsets[static_cast<size_t>(u) + 1] = static_cast<int64_t>(items.size());
    ++u;
  }
}

int64_t RatedIndex::NumRated(int32_t user) const {
  if (user < 0 || user >= num_users()) return 0;
  return offsets[static_cast<size_t>(user) + 1] -
         offsets[static_cast<size_t>(user)];
}

TopKAccumulator::TopKAccumulator(int k, const int32_t* excl_begin,
                                 const int32_t* excl_end)
    : k_(k), excl_cursor_(excl_begin), excl_end_(excl_end) {
  HSGD_CHECK(k > 0);
  heap_.reserve(static_cast<size_t>(k));
}

void TopKAccumulator::Consume(int32_t tile_begin, int32_t count,
                              const float* scores) {
  for (int32_t i = 0; i < count; ++i) {
    const int32_t v = tile_begin + i;
    // The exclusion list is sorted, so one forward cursor skips rated
    // items in O(1) amortized instead of a per-item binary search.
    while (excl_cursor_ != excl_end_ && *excl_cursor_ < v) {
      ++excl_cursor_;
    }
    if (excl_cursor_ != excl_end_ && *excl_cursor_ == v) {
      continue;
    }
    const ScoredItem candidate{v, scores[static_cast<size_t>(i)]};
    if (static_cast<int>(heap_.size()) < k_) {
      heap_.push_back(candidate);
      std::push_heap(heap_.begin(), heap_.end(), Better);
    } else if (Better(candidate, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Better);
      heap_.back() = candidate;
      std::push_heap(heap_.begin(), heap_.end(), Better);
    }
  }
}

std::vector<ScoredItem> TopKAccumulator::Finish() {
  // Pop the heap (worst first) into the result back-to-front.
  std::vector<ScoredItem> result(heap_.size());
  for (size_t i = result.size(); i-- > 0;) {
    std::pop_heap(heap_.begin(), heap_.end(), Better);
    result[i] = heap_.back();
    heap_.pop_back();
  }
  return result;
}

}  // namespace hsgd
