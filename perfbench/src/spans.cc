#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/json.h"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled, int tracks)
    : enabled_(enabled), origin_ns_(NowNs()), tracks_(tracks) {
  if (!enabled_) return;
  for (Track& track : tracks_) track.spans.reserve(1 << 16);
}

SpanId SpanRecorder::Begin(int track, const char* name, const char* layer,
                           int64_t id) {
  if (!enabled_) return kNoSpan;
  Track& t = tracks_[static_cast<size_t>(track)];
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = NowNs() - origin_ns_;
  span.end_ns = span.start_ns;
  span.parent = t.open.empty() ? kNoSpan : t.open.back();
  span.id = id;
  const SpanId handle = Handle(track, t.spans.size());
  t.spans.push_back(span);
  t.open.push_back(handle);
  return handle;
}

void SpanRecorder::End(SpanId span) {
  if (span == kNoSpan) return;
  Track& t = tracks_[static_cast<size_t>(TrackOf(span))];
  t.spans[IndexOf(span)].end_ns = NowNs() - origin_ns_;
  // Spans close innermost first; tolerate a scope closed out of order.
  auto it = std::find(t.open.begin(), t.open.end(), span);
  if (it != t.open.end()) t.open.erase(it);
}

SpanId SpanRecorder::Add(int track, const char* name, const char* layer,
                         int64_t start_ns, int64_t end_ns, SpanId parent,
                         int64_t id) {
  if (!enabled_) return kNoSpan;
  Track& t = tracks_[static_cast<size_t>(track)];
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns - origin_ns_;
  span.end_ns = end_ns - origin_ns_;
  span.parent = parent;
  span.id = id;
  const SpanId handle = Handle(track, t.spans.size());
  t.spans.push_back(span);
  return handle;
}

void SpanRecorder::SetParent(SpanId span, SpanId parent) {
  if (span == kNoSpan) return;
  tracks_[static_cast<size_t>(TrackOf(span))].spans[IndexOf(span)].parent =
      parent;
}

void SpanRecorder::NameTrack(int track, std::string name) {
  tracks_[static_cast<size_t>(track)].name = std::move(name);
}

int64_t SpanRecorder::size() const {
  int64_t n = 0;
  for (const Track& track : tracks_) {
    n += static_cast<int64_t>(track.spans.size());
  }
  return n;
}

const Span& SpanRecorder::Get(SpanId span) const {
  return tracks_[static_cast<size_t>(TrackOf(span))].spans[IndexOf(span)];
}

std::vector<std::vector<int64_t>> SpanRecorder::SelfNs() const {
  // Children's intervals, clipped to the parent, grouped by parent.
  std::map<SpanId, std::vector<std::pair<int64_t, int64_t>>> covered;
  for (size_t t = 0; t < tracks_.size(); ++t) {
    for (const Span& span : tracks_[t].spans) {
      if (span.parent == kNoSpan) continue;
      const Span& parent = Get(span.parent);
      const int64_t lo = std::max(span.start_ns, parent.start_ns);
      const int64_t hi = std::min(span.end_ns, parent.end_ns);
      if (hi > lo) covered[span.parent].emplace_back(lo, hi);
    }
  }
  std::vector<std::vector<int64_t>> self(tracks_.size());
  for (size_t t = 0; t < tracks_.size(); ++t) {
    const auto& spans = tracks_[t].spans;
    self[t].resize(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      self[t][i] = spans[i].end_ns - spans[i].start_ns;
    }
  }
  for (auto& [parent, intervals] : covered) {
    std::sort(intervals.begin(), intervals.end());
    int64_t union_ns = 0;
    int64_t cur_lo = intervals[0].first;
    int64_t cur_hi = intervals[0].second;
    for (size_t i = 1; i < intervals.size(); ++i) {
      if (intervals[i].first > cur_hi) {
        union_ns += cur_hi - cur_lo;
        cur_lo = intervals[i].first;
        cur_hi = intervals[i].second;
      } else {
        cur_hi = std::max(cur_hi, intervals[i].second);
      }
    }
    union_ns += cur_hi - cur_lo;
    self[static_cast<size_t>(TrackOf(parent))][IndexOf(parent)] -= union_ns;
  }
  return self;
}

std::vector<SpanStat> SpanRecorder::Aggregate() const {
  const auto self = SelfNs();
  std::map<std::string, SpanStat> by_name;
  for (size_t t = 0; t < tracks_.size(); ++t) {
    const auto& spans = tracks_[t].spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanStat& stat = by_name[spans[i].name];
      stat.name = spans[i].name;
      stat.layer = spans[i].layer;
      ++stat.count;
      stat.total_s += static_cast<double>(spans[i].end_ns -
                                          spans[i].start_ns) * 1e-9;
      stat.self_s += static_cast<double>(self[t][i]) * 1e-9;
    }
  }
  std::vector<SpanStat> out;
  for (auto& [name, stat] : by_name) out.push_back(stat);
  std::sort(out.begin(), out.end(), [](const SpanStat& a, const SpanStat& b) {
    return a.self_s > b.self_s || (a.self_s == b.self_s && a.name < b.name);
  });
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto self = SelfNs();
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (size_t t = 0; t < tracks_.size(); ++t) {
    if (!tracks_[t].name.empty()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                   "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                   first ? "" : ",", t,
                   hsgd::obs::JsonEscape(tracks_[t].name).c_str());
      first = false;
    }
    const auto& spans = tracks_[t].spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(
          f,
          "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%lld,"
          "\"parent\":%lld,\"id\":%lld,\"self_us\":%.3f}}",
          first ? "" : ",", hsgd::obs::JsonEscape(s.name).c_str(),
          hsgd::obs::JsonEscape(s.layer).c_str(), t, s.start_ns * 1e-3,
          (s.end_ns - s.start_ns) * 1e-3,
          static_cast<long long>(Handle(static_cast<int>(t), i)),
          static_cast<long long>(s.parent), static_cast<long long>(s.id),
          self[t][i] * 1e-3);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
