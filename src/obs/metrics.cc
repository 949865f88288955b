#include "obs/metrics.h"

#include <algorithm>

#include "util/logging.h"
#include "util/strings.h"

namespace hsgd::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  HSGD_CHECK(!bounds_.empty()) << "histogram needs at least one bound";
  for (size_t i = 1; i < bounds_.size(); ++i) {
    HSGD_CHECK(bounds_[i - 1] < bounds_[i])
        << "histogram bounds must be strictly increasing";
  }
}

void Histogram::Observe(double v) {
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  std::lock_guard<std::mutex> lock(mu_);
  ++buckets_[bucket];
  ++count_;
  sum_ += v;
}

double HistogramSnapshot::Percentile(double q) const {
  if (count <= 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count);
  int64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) < target) continue;
    if (b == buckets.size() - 1) {
      // Overflow bucket: no upper edge to interpolate toward; clamp to
      // its lower edge (the last finite bound).
      return bounds.back();
    }
    const double hi = bounds[b];
    const double lo = b == 0 ? 0.0 : bounds[b - 1];
    const int64_t in_bucket = buckets[b];
    if (in_bucket == 0) return hi;
    const double before = static_cast<double>(cumulative - in_bucket);
    const double frac = (target - before) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
  }
  return bounds.back();
}

int64_t MetricsSnapshot::CounterValue(const std::string& name,
                                      int64_t missing) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return missing;
}

double MetricsSnapshot::GaugeValue(const std::string& name,
                                   double missing) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return missing;
}

Json MetricsSnapshot::ToJson() const {
  Json root = Json::Object();
  root.Set("schema", Json::Str("hsgd.metrics/v1"));
  Json cs = Json::Object();
  for (const auto& [name, value] : counters) cs.Set(name, Json::Int(value));
  root.Set("counters", std::move(cs));
  Json gs = Json::Object();
  for (const auto& [name, value] : gauges) {
    gs.Set(name, Json::Double(value));
  }
  root.Set("gauges", std::move(gs));
  Json hs = Json::Object();
  for (const auto& [name, h] : histograms) {
    Json entry = Json::Object();
    Json bounds = Json::Array();
    for (double b : h.bounds) bounds.Push(Json::Double(b));
    Json buckets = Json::Array();
    for (int64_t c : h.buckets) buckets.Push(Json::Int(c));
    entry.Set("bounds", std::move(bounds));
    entry.Set("buckets", std::move(buckets));
    entry.Set("count", Json::Int(h.count));
    entry.Set("sum", Json::Double(h.sum));
    entry.Set("p50", Json::Double(h.Percentile(0.50)));
    entry.Set("p99", Json::Double(h.Percentile(0.99)));
    hs.Set(name, std::move(entry));
  }
  root.Set("histograms", std::move(hs));
  return root;
}

namespace {

std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    const std::string n = PromName(name);
    out += "# TYPE " + n + " counter\n";
    out += StrFormat("%s %lld\n", n.c_str(), static_cast<long long>(value));
  }
  for (const auto& [name, value] : gauges) {
    const std::string n = PromName(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + JsonNumber(value) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    const std::string n = PromName(name);
    out += "# TYPE " + n + " histogram\n";
    int64_t cumulative = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      const std::string le =
          b < h.bounds.size() ? JsonNumber(h.bounds[b]) : "+Inf";
      out += StrFormat("%s_bucket{le=\"%s\"} %lld\n", n.c_str(),
                       le.c_str(), static_cast<long long>(cumulative));
    }
    out += n + "_sum " + JsonNumber(h.sum) + "\n";
    out += StrFormat("%s_count %lld\n", n.c_str(),
                     static_cast<long long>(h.count));
  }
  return out;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  HSGD_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered as another kind";
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  HSGD_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered as another kind";
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  HSGD_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0)
      << "metric '" << name << "' already registered as another kind";
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  } else {
    HSGD_CHECK(slot->bounds() == bounds)
        << "histogram '" << name << "' re-registered with other bounds";
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    std::lock_guard<std::mutex> hold(h->mu_);
    snap.histograms.emplace_back(
        name, HistogramSnapshot{h->bounds_, h->buckets_, h->count_, h->sum_});
  }
  return snap;
}

std::vector<double> ExponentialBounds(double start, double factor,
                                      int count) {
  HSGD_CHECK(start > 0.0 && factor > 1.0 && count > 0);
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double edge = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

}  // namespace hsgd::obs
