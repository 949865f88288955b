// Tests for the benchmark's own helpers (percentile rule, median and
// quartiles, span self time, the trace writer) and a tiny size of each
// workload that runs every output check in seconds.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "report.h"
#include "spans.h"
#include "stats.h"
#include "test_main.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  // 100 samples: p50 is the 50th value with 50 beyond it.
  Tail p50 = TailPercentile(Range(100), 50);
  EXPECT_TRUE(p50.ok);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.percentile, 50.0);
  EXPECT_EQ(p50.samples, 100);
  // p99 would leave 1 sample beyond it; the rule lowers it to p90.
  Tail p99 = TailPercentile(Range(100), 99);
  EXPECT_TRUE(p99.ok);
  EXPECT_EQ(p99.value, 90.0);
  EXPECT_EQ(p99.percentile, 90.0);
  // 2000 samples support p99 with 20 beyond it.
  Tail big = TailPercentile(Range(2000), 99);
  EXPECT_EQ(big.value, 1980.0);
  EXPECT_EQ(big.percentile, 99.0);
  // Ten samples support no percentile at all.
  EXPECT_FALSE(TailPercentile(Range(10), 50).ok);
  Tail eleven = TailPercentile(Range(11), 50);
  EXPECT_TRUE(eleven.ok);
  EXPECT_EQ(eleven.value, 1.0);
  EXPECT_NEAR(eleven.percentile, 100.0 / 11, 1e-9);
}

void TestMedianAndQuartiles() {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  // Reference values from Python's statistics.quantiles(values, n=4).
  Quartiles q = ComputeQuartiles(Range(10));
  EXPECT_NEAR(q.q1, 2.75, 1e-12);
  EXPECT_NEAR(q.q2, 5.5, 1e-12);
  EXPECT_NEAR(q.q3, 8.25, 1e-12);
  q = ComputeQuartiles({1, 2});
  EXPECT_NEAR(q.q1, 0.75, 1e-12);
  EXPECT_NEAR(q.q2, 1.5, 1e-12);
  EXPECT_NEAR(q.q3, 2.25, 1e-12);
  q = ComputeQuartiles({5, 1, 4, 2, 3});
  EXPECT_NEAR(q.q1, 1.5, 1e-12);
  EXPECT_NEAR(q.q2, 3.0, 1e-12);
  EXPECT_NEAR(q.q3, 4.5, 1e-12);
}

void TestSpanSelfTime() {
  SpanRecorder spans(true, 2);
  const int64_t base = NowNs();
  // Parent [0, 100] with two overlapping children [10, 30] and [20, 50]
  // on another track: the children cover [10, 50], so self is 60.
  const SpanId parent =
      spans.Add(0, "parent", "a", base, base + 100, kNoSpan);
  const SpanId c1 = spans.Add(1, "child", "b", base + 10, base + 30, parent);
  const SpanId c2 = spans.Add(1, "child", "b", base + 20, base + 50, parent);
  // A child running past its parent's end counts only inside it.
  const SpanId c3 = spans.Add(1, "late", "b", base + 90, base + 150, parent);
  const auto self = spans.SelfNs();
  EXPECT_EQ(self[0][0], 100 - 40 - 10);
  EXPECT_EQ(self[1][0], 20);
  EXPECT_EQ(self[1][1], 30);
  EXPECT_EQ(self[1][2], 60);
  (void)c1;
  (void)c2;
  (void)c3;

  // Scopes nest on one track: the inner span's parent is the outer one.
  SpanRecorder nested(true, 1);
  SpanId outer_id = kNoSpan, inner_id = kNoSpan;
  {
    SpanRecorder::Scope outer(&nested, 0, "outer", "x", 7);
    outer_id = outer.id();
    SpanRecorder::Scope inner(&nested, 0, "inner", "y", 7);
    inner_id = inner.id();
  }
  EXPECT_EQ(nested.Get(inner_id).parent, outer_id);
  EXPECT_EQ(nested.Get(outer_id).parent, kNoSpan);
  EXPECT_EQ(nested.Get(inner_id).id, 7);
  const auto stats = nested.Aggregate();
  EXPECT_EQ(stats.size(), 2u);
  for (const SpanStat& stat : stats) {
    EXPECT_EQ(stat.count, 1);
    EXPECT_LE(stat.self_s, stat.total_s);
  }

  // A disabled recorder records nothing.
  SpanRecorder off(false, 1);
  { SpanRecorder::Scope scope(&off, 0, "x", "y"); }
  EXPECT_EQ(off.Add(0, "x", "y", 0, 1, kNoSpan), kNoSpan);
  EXPECT_EQ(off.size(), 0);
}

void TestTraceWriter() {
  SpanRecorder spans(true, 2);
  spans.NameTrack(0, "main \"thread\"");
  {
    SpanRecorder::Scope outer(&spans, 0, "outer", "core/session", 1);
    SpanRecorder::Scope inner(&spans, 0, "inner", "core/checkpoint", 1);
  }
  const int64_t t = NowNs();
  spans.Add(1, "query", "serve", t, t + 5000, kNoSpan, 42);
  const std::string path =
      (std::filesystem::temp_directory_path() / "perfbench_trace_test.json")
          .string();
  EXPECT_TRUE(spans.WriteChromeTrace(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  std::filesystem::remove(path);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  size_t events = 0;
  for (size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 3u);
  EXPECT_TRUE(json.find("\"name\":\"main \\\"thread\\\"\"") !=
              std::string::npos);
  EXPECT_TRUE(json.find("\"id\":42") != std::string::npos);
  EXPECT_TRUE(json.find("\"self_us\":") != std::string::npos);
  EXPECT_TRUE(json.find("\"dur\":5.000") != std::string::npos);
  // Balanced braces and brackets: the file is one JSON object.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_TRUE(depth >= 0);
  }
  EXPECT_EQ(depth, 0);
}

void TestWindowMedian() {
  Report report;
  std::vector<double> values;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) values.push_back(i + (w == 2 ? 1000 : 0));
  }
  // One slow window does not set the number: p99 of 100 samples is
  // lowered to p90 by the sample-count rule, and the median over the five
  // windows ignores the slow one.
  EXPECT_TRUE(
      ReportWindowMedian(&report, true, "latency_p99_ms", values, 100, 99));
  EXPECT_EQ(report.Value("latency_p99_ms"), 90.0);
  // Fewer than two windows: the whole sample, under the same rule. Its
  // 250th of 500 values is 63 (each of 1..100 appears four times).
  EXPECT_TRUE(
      ReportWindowMedian(&report, true, "latency_p50_ms", values, 300, 50));
  EXPECT_EQ(report.Value("latency_p50_ms"), 63.0);
  EXPECT_TRUE(report.correct());
}

void RunTiny(const char* workload, void (*run)(const Options&, Report*)) {
  Options options;
  options.workload = workload;
  options.seed = 1;
  options.seconds = 1.0;
  options.trace = true;
  options.tiny = true;
  options.out_dir =
      (std::filesystem::temp_directory_path() /
       (std::string("perfbench_test_") + workload))
          .string();
  std::filesystem::create_directories(options.out_dir);
  Report report;
  run(options, &report);
  report.Print(true);
  EXPECT_TRUE(report.correct());
  EXPECT_TRUE(report.attempted() > 0);
  EXPECT_EQ(report.failed(), 0);
  for (const MetricSpec& spec : kPerLayer) {
    EXPECT_TRUE(report.HasLayer(spec.name));
  }
  for (const MetricSpec& spec : kEndToEnd) {
    EXPECT_TRUE(report.Value(spec.name) > 0.0);
  }
  std::filesystem::remove_all(options.out_dir);
}

void TestTinyWorkloads() {
  RunTiny("train", RunTrain);
  RunTiny("serve", RunServe);
  RunTiny("live", RunLive);
}

}  // namespace

void RunAllTests() {
  TestPercentileRule();
  TestMedianAndQuartiles();
  TestSpanSelfTime();
  TestTraceWriter();
  TestWindowMedian();
  TestTinyWorkloads();
}

}  // namespace perfbench

using perfbench::RunAllTests;
TEST_MAIN()
