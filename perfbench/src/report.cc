#include "report.h"

#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"session.epoch_s", "s"},
    {"session.eval_s", "s"},
    {"session.sweep_s", "s"},
    {"kernels.sgd_updates_per_s", "1/s"},
    {"kernels.sgd_scalar_updates_per_s", "1/s"},
    {"kernels.score_sweep_us_per_query_b1", "us"},
    {"kernels.score_sweep_us_per_query_b32", "us"},
    {"kernels.score_bytes_per_query", "B"},
    {"ckpt.save_s", "s"},
    {"ckpt.bytes", "B"},
    {"sched.block_tasks", "count"},
    {"sched.steals", "count"},
    {"sim.alpha", "ratio"},
    {"sim.update_rate_cv", "ratio"},
    {"sim.epoch_s", "sim_s"},
    {"sim.time_to_target_s", "sim_s"},
    {"quality.test_rmse", "rmse"},
    {"serve.topk_us_per_query_b1", "us"},
    {"serve.topk_us_per_query_b32", "us"},
    {"serve.topk_select_us_per_query", "us"},
    {"serve.shard_us_per_query", "us"},
    {"serve.mean_batch", "count"},
    {"serve.submit_us", "us"},
    {"serve.shed", "count"},
    {"serve.rejected", "count"},
    {"serve.deadline_miss", "count"},
    {"serve.acquire_ns", "ns"},
    {"serve.send_lag_ms", "ms"},
    {"serve.query_p50_ms", "ms"},
    {"serve.query_p99_ms", "ms"},
    {"snapshot.build_s", "s"},
    {"snapshot.validate_s", "s"},
    {"stream.ingest_s", "s"},
    {"stream.train_dirty_s", "s"},
    {"stream.publish_s", "s"},
    {"stream.batch_ratings", "count"},
    {"stream.dirty_blocks", "count"},
    {"stream.rounds", "count"},
    {"stream.backlog_ratings", "count"},
    {"stream.wal_append_s", "s"},
    {"stream.arrival_lag_ms", "ms"},
    {"env.nproc", "count"},
    {"env.busy_threads", "count"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& note) {
  end_to_end_[name] = {value, note};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& note) {
  layers_[name] = {value, note};
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) checks_failed_.push_back(what);
}

bool Report::HasLayer(const std::string& name) const {
  return layers_.count(name) != 0;
}

double Report::Value(const std::string& name) const {
  auto it = end_to_end_.find(name);
  if (it != end_to_end_.end()) return it->second.value;
  it = layers_.find(name);
  return it != layers_.end() ? it->second.value : 0.0;
}

const char* Report::UnitOf(const std::vector<MetricSpec>& table,
                           const std::string& name) {
  for (const MetricSpec& spec : table) {
    if (name == spec.name) return spec.unit;
  }
  return nullptr;
}

void Report::Print(bool trace) {
  // Every table metric must be present and finite; a layer the workload
  // never called reports 0.
  for (const MetricSpec& spec : kEndToEnd) {
    auto it = end_to_end_.find(spec.name);
    Check(it != end_to_end_.end() && std::isfinite(it->second.value) &&
              it->second.value > 0.0,
          std::string("end-to-end metric measured and positive: ") +
              spec.name);
  }
  for (const MetricSpec& spec : kPerLayer) {
    if (layers_.count(spec.name) == 0) {
      layers_[spec.name] = {0.0, "not called by this workload"};
    }
    Check(std::isfinite(layers_[spec.name].value),
          std::string("per-layer metric finite: ") + spec.name);
  }
  for (const auto& [key, value] : info_) {
    std::printf("info    %-34s %s\n", key.c_str(), value.c_str());
  }
  auto print_group = [](const char* group,
                        const std::vector<MetricSpec>& table,
                        const std::map<std::string, Entry>& entries) {
    for (const MetricSpec& spec : table) {
      auto it = entries.find(spec.name);
      if (it == entries.end()) continue;
      std::printf("%-7s %-38s %16.6f %-6s %s\n", group, spec.name,
                  it->second.value, spec.unit, it->second.note.c_str());
    }
  };
  print_group("e2e", kEndToEnd, end_to_end_);
  print_group("layer", kPerLayer, layers_);
  for (const std::string& what : checks_failed_) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  std::printf("checks  %lld run, %zu failed; attempted %lld, failed %lld\n",
              static_cast<long long>(checks_), checks_failed_.size(),
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));

  const auto& table = trace ? kPerLayer : kEndToEnd;
  const auto& entries = trace ? layers_ : end_to_end_;
  std::string json = std::string("{\"correct\": ") +
                     (correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : table) {
    auto it = entries.find(spec.name);
    const double value =
        it != entries.end() && std::isfinite(it->second.value)
            ? it->second.value
            : 0.0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    json += std::string(first ? "" : ", ") + "\"" +
            hsgd::obs::JsonEscape(spec.name) + "\": {\"value\": " + number +
            ", \"unit\": \"" + UnitOf(table, spec.name) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
