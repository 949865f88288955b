// The metric tables every run reports against, and the result a run
// prints: one human-readable line per metric, then one JSON line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: what a user of each workload sees. Every workload
/// reports every one; the README defines each per workload.
extern const std::vector<MetricSpec> kEndToEnd;

/// Per-layer metrics, reported by traced runs. A layer a workload never
/// calls reports 0 and is marked so on its line.
extern const std::vector<MetricSpec> kPerLayer;

class Report {
 public:
  void EndToEnd(const std::string& name, double value,
                const std::string& note = "");
  void Layer(const std::string& name, double value,
             const std::string& note = "");
  /// Free-form facts printed with the result (kernel variant, nproc...).
  void Info(const std::string& key, const std::string& value);

  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(int64_t n = 1) { failed_ += n; }
  /// Records an output check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what);

  bool correct() const { return checks_failed_.empty(); }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool HasLayer(const std::string& name) const;
  double Value(const std::string& name) const;

  /// Prints info, check failures and every metric line, then the result
  /// JSON with the end-to-end metrics (trace off) or the per-layer ones
  /// (trace on) as the last line of stdout.
  void Print(bool trace);

 private:
  struct Entry {
    double value = 0.0;
    std::string note;
  };
  static const char* UnitOf(const std::vector<MetricSpec>& table,
                            const std::string& name);

  std::map<std::string, Entry> end_to_end_;
  std::map<std::string, Entry> layers_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> checks_failed_;
  int64_t checks_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench
