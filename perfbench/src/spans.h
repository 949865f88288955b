// In-memory spans the benchmark records around its own calls into the
// library's public functions, written out at the end as Chrome
// trace-event JSON. Each track reserves its buffer up front, so recording
// rarely allocates, and a disabled recorder does nothing at all: the
// untraced end-to-end runs pay no tracing cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock; every timestamp in the benchmark.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Global span handle: track in the high half, index in the low half.
using SpanId = int64_t;
inline constexpr SpanId kNoSpan = -1;

struct Span {
  const char* name = "";   // static string, e.g. "session.RunEpoch"
  const char* layer = "";  // module the call enters, e.g. "core/session"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanId parent = kNoSpan;
  int64_t id = -1;  // request, round or epoch id; -1 when none
};

/// Per-name totals over all recorded spans.
struct SpanStat {
  std::string name;
  std::string layer;
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanRecorder {
 public:
  /// `tracks` is the number of threads that record; each thread uses its
  /// own track index, so recording needs no lock.
  SpanRecorder(bool enabled, int tracks);

  bool enabled() const { return enabled_; }

  /// Opens a span on `track` whose parent is the innermost span still
  /// open on that track. Returns kNoSpan when disabled.
  SpanId Begin(int track, const char* name, const char* layer,
               int64_t id = -1);
  void End(SpanId span);

  /// Records a finished span with explicit times and parent, for work that
  /// does not nest on one thread (an asynchronous request).
  SpanId Add(int track, const char* name, const char* layer,
             int64_t start_ns, int64_t end_ns, SpanId parent,
             int64_t id = -1);

  /// Re-parents a finished or open span (a Submit recorded before its
  /// request span existed).
  void SetParent(SpanId span, SpanId parent);

  void NameTrack(int track, std::string name);
  int64_t size() const;
  const Span& Get(SpanId span) const;

  /// Self time of every span: its duration minus the union of the parts
  /// of its interval that its children cover. Indexed like Get().
  std::vector<std::vector<int64_t>> SelfNs() const;

  /// Totals per span name, sorted by descending self time.
  std::vector<SpanStat> Aggregate() const;

  /// Writes every span as a Chrome trace-event "X" event, with its id,
  /// parent and self time in args. Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

  /// RAII span on one track; a no-op when the recorder is disabled.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, int track, const char* name,
          const char* layer, int64_t id = -1)
        : recorder_(recorder),
          span_(recorder->Begin(track, name, layer, id)) {}
    ~Scope() { recorder_->End(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    SpanId id() const { return span_; }

   private:
    SpanRecorder* recorder_;
    SpanId span_;
  };

 private:
  struct Track {
    std::string name;
    std::vector<Span> spans;
    std::vector<SpanId> open;
  };
  static SpanId Handle(int track, size_t index) {
    return (static_cast<int64_t>(track) << 32) | static_cast<int64_t>(index);
  }
  static int TrackOf(SpanId span) { return static_cast<int>(span >> 32); }
  static size_t IndexOf(SpanId span) {
    return static_cast<size_t>(span & 0xffffffff);
  }

  bool enabled_;
  int64_t origin_ns_;
  std::vector<Track> tracks_;
};

}  // namespace perfbench
