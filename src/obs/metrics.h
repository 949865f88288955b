// Thread-safe metrics registry: named counters, gauges and fixed-bucket
// histograms, exported as JSON or a Prometheus-style text dump.
//
// Write side: a counter is one relaxed atomic add, a gauge one relaxed
// store, and a histogram observation takes the histogram's own mutex for
// a bucket, count and sum update. Nothing is lost or torn: quiesce, then
// Snapshot, and every total is exact; a Snapshot taken under concurrent
// writers is slightly stale, but each histogram in it is internally
// consistent (its buckets add up to its count).
//
// The registry hands out stable pointers: register once (cheap mutex +
// map lookup), then bump through the pointer on the hot path with no
// lookup at all. Instrumented code holds `Counter*` that may be null
// (observability detached) — use the null-safe free helpers below, which
// compile to a test-and-skip when disabled.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace hsgd::obs {

/// Monotonic counter: one relaxed atomic add per update.
class Counter {
 public:
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  /// Exact once writers quiesce.
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper edges of the
/// first N buckets, plus an implicit +inf overflow bucket. Bucket counts,
/// count and sum live under one mutex.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class MetricsRegistry;
  const std::vector<double> bounds_;
  std::mutex mu_;
  std::vector<int64_t> buckets_;  // bounds_.size() + 1 entries
  int64_t count_ = 0;
  double sum_ = 0.0;
};

struct HistogramSnapshot {
  std::vector<double> bounds;
  /// bounds.size() + 1 entries; the last is the +inf overflow bucket.
  std::vector<int64_t> buckets;
  int64_t count = 0;
  double sum = 0.0;

  double Mean() const { return count > 0 ? sum / count : 0.0; }
  /// Quantile `q` in [0, 1], linearly interpolated inside the bucket the
  /// q-th observation landed in (Prometheus histogram_quantile rules:
  /// the overflow bucket clamps to its lower edge). 0 when empty.
  double Percentile(double q) const;
};

/// Point-in-time aggregation of a registry, sorted by metric name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Counter value by exact name; `missing` when absent.
  int64_t CounterValue(const std::string& name, int64_t missing = 0) const;
  double GaugeValue(const std::string& name, double missing = 0.0) const;

  /// {"schema": "hsgd.metrics/v1", "counters": {...}, "gauges": {...},
  ///  "histograms": {name: {bounds, buckets, count, sum, p50, p99}}}
  Json ToJson() const;
  /// Prometheus text exposition ("# TYPE" lines; histograms as
  /// cumulative `_bucket{le=...}` series plus `_sum`/`_count`).
  /// Metric names have [^a-zA-Z0-9_:] mapped to '_'.
  std::string ToPrometheus() const;
};

class MetricsRegistry {
 public:
  /// Find-or-create; the returned pointer is stable for the registry's
  /// lifetime. Re-registering a name as a different metric kind aborts.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// `bounds` must be strictly increasing and non-empty; mismatched
  /// bounds on re-registration abort.
  Histogram* histogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Null-safe helpers: instrumented code keeps possibly-null metric
// pointers and calls these unconditionally; detached observability costs
// one predictable branch.
inline void Add(Counter* c, int64_t delta) {
  if (c != nullptr) c->Add(delta);
}
inline void Increment(Counter* c) { Add(c, 1); }
inline void Set(Gauge* g, double v) {
  if (g != nullptr) g->Set(v);
}
inline void Observe(Histogram* h, double v) {
  if (h != nullptr) h->Observe(v);
}

/// Exponential bucket edges: `count` edges starting at `start`, each
/// `factor` times the previous — the standard latency-histogram shape.
std::vector<double> ExponentialBounds(double start, double factor,
                                      int count);

}  // namespace hsgd::obs
