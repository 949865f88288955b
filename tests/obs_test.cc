// Observability-layer tests: histogram bucket/percentile math, lock-free
// counter exactness under contention, JSON/Prometheus export shape, the
// Chrome-trace writer, and the two session-level guarantees — attaching
// metrics+trace perturbs nothing (bit-identical runs), and the exported
// counters agree with the engine's own stats.
//
// obs/json.h is a writer only, so this file carries a tiny recursive-
// descent JSON parser to validate what the artifacts actually contain.

#include <cctype>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/hsgd.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_main.h"

namespace hsgd {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON parser (tests only). Parse() returns false on any syntax
// error; values land in a tree of JNodes.

struct JNode {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj } kind = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JNode> arr;
  std::vector<std::pair<std::string, JNode>> obj;

  const JNode* Get(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JParser {
 public:
  explicit JParser(const std::string& text) : s_(text) {}

  bool Parse(JNode* out) {
    Skip();
    if (!Value(out)) return false;
    Skip();
    return pos_ == s_.size();
  }

 private:
  void Skip() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case '"': case '\\': case '/': c = e; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            // Escaped control characters only; keep the raw code point's
            // low byte (enough for the ASCII artifacts we emit).
            const int code = std::stoi(s_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            c = static_cast<char>(code);
            break;
          }
          default: return false;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Value(JNode* out) {
    Skip();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == 'n') { out->kind = JNode::kNull; return Literal("null"); }
    if (c == 't') { out->kind = JNode::kBool; out->b = true; return Literal("true"); }
    if (c == 'f') { out->kind = JNode::kBool; out->b = false; return Literal("false"); }
    if (c == '"') { out->kind = JNode::kStr; return String(&out->str); }
    if (c == '[') {
      ++pos_;
      out->kind = JNode::kArr;
      Skip();
      if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
      while (true) {
        JNode elem;
        if (!Value(&elem)) return false;
        out->arr.push_back(std::move(elem));
        Skip();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') { ++pos_; continue; }
        if (s_[pos_] == ']') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '{') {
      ++pos_;
      out->kind = JNode::kObj;
      Skip();
      if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
      while (true) {
        Skip();
        std::string key;
        if (!String(&key)) return false;
        Skip();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        JNode val;
        if (!Value(&val)) return false;
        out->obj.emplace_back(std::move(key), std::move(val));
        Skip();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') { ++pos_; continue; }
        if (s_[pos_] == '}') { ++pos_; return true; }
        return false;
      }
    }
    // number
    size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) ||
            s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
            s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return false;
    out->kind = JNode::kNum;
    out->num = std::stod(s_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool ParseJson(const std::string& text, JNode* out) {
  return JParser(text).Parse(out);
}

std::string ReadFileOrEmpty(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// ---------------------------------------------------------------------

void TestJsonWriterRoundTrip() {
  obs::Json root = obs::Json::Object();
  root.Set("int", obs::Json::Int(-42))
      .Set("pi", obs::Json::Double(3.25))
      .Set("s", obs::Json::Str("a\"b\\c\nd"))
      .Set("flag", obs::Json::Bool(true))
      .Set("nothing", obs::Json::Null())
      .Set("arr", obs::Json::Array()
                      .Push(obs::Json::Int(1))
                      .Push(obs::Json::Str("two"))
                      .Push(obs::Json::Object().Set(
                          "nested", obs::Json::Bool(false))));

  for (int indent : {0, 2}) {
    JNode parsed;
    EXPECT_TRUE(ParseJson(root.Dump(indent), &parsed));
    EXPECT_EQ(parsed.kind, JNode::kObj);
    EXPECT_EQ(parsed.Get("int")->num, -42.0);
    EXPECT_EQ(parsed.Get("pi")->num, 3.25);
    EXPECT_EQ(parsed.Get("s")->str, std::string("a\"b\\c\nd"));
    EXPECT_TRUE(parsed.Get("flag")->b);
    EXPECT_EQ(parsed.Get("nothing")->kind, JNode::kNull);
    EXPECT_EQ(parsed.Get("arr")->arr.size(), 3u);
    EXPECT_EQ(parsed.Get("arr")->arr[1].str, std::string("two"));
    EXPECT_FALSE(parsed.Get("arr")->arr[2].Get("nested")->b);
  }
  // Keys keep insertion order (artifacts must diff cleanly).
  JNode parsed;
  EXPECT_TRUE(ParseJson(root.Dump(0), &parsed));
  EXPECT_EQ(parsed.obj[0].first, std::string("int"));
  EXPECT_EQ(parsed.obj[5].first, std::string("arr"));
  // Non-finite doubles degrade to null, not invalid JSON.
  JNode nan_parsed;
  obs::Json bad = obs::Json::Object().Set(
      "nan", obs::Json::Double(std::nan("")));
  EXPECT_TRUE(ParseJson(bad.Dump(0), &nan_parsed));
  EXPECT_EQ(nan_parsed.Get("nan")->kind, JNode::kNull);
}

void TestHistogramBucketAndPercentileMath() {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.histogram("h", {1.0, 2.0, 4.0, 8.0});
  // One observation per finite bucket (edges are inclusive upper bounds)
  // plus one overflow.
  h->Observe(0.5);   // bucket 0
  h->Observe(2.0);   // == edge -> bucket 1
  h->Observe(3.0);   // bucket 2
  h->Observe(5.0);   // bucket 3
  h->Observe(100.0); // overflow

  const obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.histograms.size(), 1u);
  const obs::HistogramSnapshot& hs = snap.histograms[0].second;
  EXPECT_EQ(hs.buckets.size(), 5u);
  for (int64_t b : hs.buckets) EXPECT_EQ(b, 1);
  EXPECT_EQ(hs.count, 5);
  EXPECT_NEAR(hs.sum, 110.5, 1e-12);
  EXPECT_NEAR(hs.Mean(), 22.1, 1e-12);
  // p50: target 2.5 observations -> middle of bucket [2, 4].
  EXPECT_NEAR(hs.Percentile(0.50), 3.0, 1e-12);
  // p10: target 0.5 -> halfway through bucket [0, 1].
  EXPECT_NEAR(hs.Percentile(0.10), 0.5, 1e-12);
  // Overflow bucket clamps to the last finite bound.
  EXPECT_NEAR(hs.Percentile(1.0), 8.0, 1e-12);
  // Out-of-range q clamps instead of exploding.
  EXPECT_NEAR(hs.Percentile(1.5), 8.0, 1e-12);
  EXPECT_NEAR(hs.Percentile(0.0), 0.0, 1e-12);
  // Empty histogram: percentile of nothing is 0.
  obs::HistogramSnapshot empty;
  empty.bounds = {1.0};
  empty.buckets = {0, 0};
  EXPECT_EQ(empty.Percentile(0.5), 0.0);

  EXPECT_EQ(obs::ExponentialBounds(1e-3, 2.0, 4),
            (std::vector<double>{1e-3, 2e-3, 4e-3, 8e-3}));
}

void TestConcurrentCountersSumExactly() {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.counter("c");
  obs::Histogram* h = reg.histogram("lat", {0.5, 1.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        // 0, 1 or 2: one value per bucket. Integer values keep the sum
        // exact in any order of addition.
        h->Observe(static_cast<double>(t % 3));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Concurrent writers lose nothing: the post-quiesce totals are exact.
  EXPECT_EQ(c->Value(), int64_t{kThreads} * kPerThread);
  std::vector<int64_t> buckets(3, 0);
  double sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    buckets[t % 3] += kPerThread;
    sum += static_cast<double>(t % 3) * kPerThread;
  }
  const obs::MetricsSnapshot snap = reg.Snapshot();
  const obs::HistogramSnapshot& hs = snap.histograms[0].second;
  EXPECT_EQ(hs.count, int64_t{kThreads} * kPerThread);
  EXPECT_TRUE(hs.buckets == buckets);
  EXPECT_EQ(hs.sum, sum);
}

void TestRegistryExportShape() {
  obs::MetricsRegistry reg;
  reg.counter("a.count")->Add(7);
  reg.gauge("b.level")->Set(2.5);
  reg.histogram("c.lat", {1.0, 2.0})->Observe(1.5);
  // Find-or-create: same name, same object.
  EXPECT_EQ(reg.counter("a.count"), reg.counter("a.count"));

  const obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("a.count"), 7);
  EXPECT_EQ(snap.CounterValue("missing", -1), -1);
  EXPECT_NEAR(snap.GaugeValue("b.level"), 2.5, 1e-12);
  EXPECT_NEAR(snap.GaugeValue("missing", -2.0), -2.0, 1e-12);

  JNode parsed;
  EXPECT_TRUE(ParseJson(snap.ToJson().Dump(2), &parsed));
  EXPECT_EQ(parsed.Get("schema")->str, std::string("hsgd.metrics/v1"));
  EXPECT_EQ(parsed.Get("counters")->Get("a.count")->num, 7.0);
  EXPECT_EQ(parsed.Get("gauges")->Get("b.level")->num, 2.5);
  const JNode* hist = parsed.Get("histograms")->Get("c.lat");
  EXPECT_TRUE(hist != nullptr);
  EXPECT_EQ(hist->Get("count")->num, 1.0);
  EXPECT_EQ(hist->Get("buckets")->arr.size(), 3u);

  const std::string prom = snap.ToPrometheus();
  // Dots fold to underscores; buckets are cumulative with an +Inf edge.
  EXPECT_TRUE(prom.find("# TYPE a_count counter\na_count 7\n") !=
              std::string::npos);
  EXPECT_TRUE(prom.find("# TYPE b_level gauge\n") != std::string::npos);
  EXPECT_TRUE(prom.find("c_lat_bucket{le=\"+Inf\"} 1\n") !=
              std::string::npos);
  EXPECT_TRUE(prom.find("c_lat_count 1\n") != std::string::npos);

  // Null-safe helpers: detached (null) metric pointers are no-ops.
  obs::Add(nullptr, 3);
  obs::Increment(nullptr);
  obs::Set(nullptr, 1.0);
  obs::Observe(nullptr, 1.0);
}

void TestTracerWritesChromeJson() {
  const std::string path = "obs_test_trace.json";
  obs::Tracer tracer;
  tracer.SetThreadName(0, "session");
  tracer.SetThreadName(1, "gpu0");
  tracer.Span("device", "kernel", 1, 0.25, 0.75,
              {obs::TraceArg::Int("nnz", 1234)});
  tracer.Instant("sched", "steal", 1, 0.5,
                 {obs::TraceArg::Str("from", "cpu2"),
                  obs::TraceArg::Bool("dynamic", true),
                  obs::TraceArg::Double("gain", 0.125)});
  EXPECT_EQ(tracer.event_count(), 4u);
  EXPECT_TRUE(tracer.WriteJson(path).ok());

  JNode parsed;
  EXPECT_TRUE(ParseJson(ReadFileOrEmpty(path), &parsed));
  std::remove(path.c_str());
  const JNode* events = parsed.Get("traceEvents");
  EXPECT_TRUE(events != nullptr && events->kind == JNode::kArr);
  EXPECT_EQ(events->arr.size(), 4u);

  int metadata = 0, spans = 0, instants = 0;
  for (const JNode& e : events->arr) {
    const std::string ph = e.Get("ph")->str;
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e.Get("name")->str, std::string("thread_name"));
      continue;
    }
    // Every real event correlates virtual and wall time.
    EXPECT_TRUE(e.Get("args")->Get("wall_ms") != nullptr);
    if (ph == "X") {
      ++spans;
      // Virtual seconds land in the viewer as microseconds.
      EXPECT_NEAR(e.Get("ts")->num, 0.25e6, 1e-6);
      EXPECT_NEAR(e.Get("dur")->num, 0.5e6, 1e-6);
      EXPECT_EQ(e.Get("args")->Get("nnz")->num, 1234.0);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.Get("s")->str, std::string("t"));
      EXPECT_EQ(e.Get("args")->Get("from")->str, std::string("cpu2"));
      EXPECT_TRUE(e.Get("args")->Get("dynamic")->b);
    }
  }
  EXPECT_EQ(metadata, 2);
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(instants, 1);
}

// ---------------------------------------------------------------------
// Session-level: exported metrics agree with the engine's own stats, the
// trace is well-formed and monotone in virtual time, and attaching the
// whole layer changes nothing about the simulation.

Dataset ObsDataset() {
  SyntheticSpec spec;
  spec.num_rows = 400;
  spec.num_cols = 300;
  spec.train_nnz = 20000;
  spec.test_nnz = 2000;
  spec.params.k = 16;
  spec.params.learning_rate = 0.01f;
  spec.noise_stddev = 0.3;
  auto ds = GenerateSynthetic(spec, /*seed=*/11);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TrainConfig ObsConfig() {
  TrainConfig cfg;
  cfg.algorithm = Algorithm::kHsgdStar;
  cfg.hardware.num_cpu_threads = 4;
  cfg.hardware.num_gpus = 1;
  cfg.max_epochs = 4;
  cfg.use_dataset_target = false;
  cfg.eval_threads = 2;
  return cfg;
}

void TestSessionMetricsAgreeWithStats() {
  const Dataset ds = ObsDataset();
  obs::MetricsRegistry reg;
  obs::Tracer tracer;
  auto session = Session::Create(ds, ObsConfig());
  EXPECT_TRUE(session.ok());
  (*session)->SetObservability({&reg, &tracer});
  EXPECT_TRUE((*session)->RunToCompletion().ok());

  const TrainStats stats = (*session)->stats();
  const obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("session.epochs"),
            (*session)->epochs_run());
  EXPECT_EQ(snap.CounterValue("session.blocks"), stats.sim.block_tasks);
  EXPECT_EQ(snap.CounterValue("sched.steals_by_gpu"),
            stats.sim.stolen_by_gpus);
  EXPECT_EQ(snap.CounterValue("sched.steals_by_cpu"),
            stats.sim.stolen_by_cpus);
  EXPECT_NEAR(snap.GaugeValue("session.sim_clock"), stats.sim.seconds,
              1e-12);
  EXPECT_EQ(snap.GaugeValue("session.epoch"),
            static_cast<double>((*session)->epochs_run()));
  // Block-duration histogram saw every task.
  bool found = false;
  for (const auto& [name, hs] : snap.histograms) {
    if (name == "session.block_sim_seconds") {
      found = true;
      EXPECT_EQ(hs.count, stats.sim.block_tasks);
      EXPECT_LT(0.0, hs.sum);
    }
  }
  EXPECT_TRUE(found);

  // The trace carries the run: write, parse, and check virtual-time
  // sanity — events inside the clock range, epoch spans monotone.
  const std::string path = "obs_test_session_trace.json";
  EXPECT_TRUE(tracer.WriteJson(path).ok());
  JNode parsed;
  EXPECT_TRUE(ParseJson(ReadFileOrEmpty(path), &parsed));
  std::remove(path.c_str());
  const JNode* events = parsed.Get("traceEvents");
  EXPECT_TRUE(events != nullptr);
  const double clock_us = stats.sim.seconds * 1e6 + 1e-3;
  double last_epoch_ts = -1.0;
  int epoch_spans = 0;
  bool saw_device = false, saw_transfer = false;
  for (const JNode& e : events->arr) {
    if (e.Get("ph")->str == "M") continue;
    const double ts = e.Get("ts")->num;
    EXPECT_LE(0.0, ts);
    EXPECT_LE(ts, clock_us);
    const std::string cat = e.Get("cat")->str;
    if (cat == "device") saw_device = true;
    if (cat == "transfer") saw_transfer = true;
    if (cat == "session") {
      // Epoch spans close at the barrier, so they are clock-bounded and
      // strictly ordered. (Device/transfer spans may legitimately end
      // past the final barrier: a resident-column block's modeled D2H
      // tail is pipelined out and never gates the epoch.)
      ++epoch_spans;
      const JNode* dur = e.Get("dur");
      if (dur != nullptr) EXPECT_LE(ts + dur->num, clock_us);
      EXPECT_LT(last_epoch_ts, ts);
      last_epoch_ts = ts;
    }
  }
  EXPECT_EQ(epoch_spans, (*session)->epochs_run());
  EXPECT_TRUE(saw_device);
  EXPECT_TRUE(saw_transfer);
}

void TestMetricsOffRunsBitIdentical() {
  const Dataset ds = ObsDataset();
  const TrainConfig cfg = ObsConfig();

  auto plain = Session::Create(ds, cfg);
  EXPECT_TRUE(plain.ok());
  EXPECT_TRUE((*plain)->RunToCompletion().ok());

  obs::MetricsRegistry reg;
  obs::Tracer tracer;
  auto observed = Session::Create(ds, cfg);
  EXPECT_TRUE(observed.ok());
  (*observed)->SetObservability({&reg, &tracer});
  EXPECT_TRUE((*observed)->RunToCompletion().ok());

  // The observability layer is passive: same trace points, same clock,
  // same factors, bit for bit.
  const Trace& a = (*plain)->trace();
  const Trace& b = (*observed)->trace();
  EXPECT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size() && i < b.points.size(); ++i) {
    EXPECT_EQ(a.points[i].epoch, b.points[i].epoch);
    EXPECT_EQ(a.points[i].time, b.points[i].time);
    EXPECT_EQ(a.points[i].test_rmse, b.points[i].test_rmse);
    EXPECT_EQ(a.points[i].train_rmse, b.points[i].train_rmse);
  }
  EXPECT_EQ((*plain)->stats().sim.seconds,
            (*observed)->stats().sim.seconds);
  EXPECT_TRUE((*plain)->model().DenseP() == (*observed)->model().DenseP());
  EXPECT_TRUE((*plain)->model().DenseQ() == (*observed)->model().DenseQ());
}

}  // namespace

void RunAllTests() {
  TestJsonWriterRoundTrip();
  TestHistogramBucketAndPercentileMath();
  TestConcurrentCountersSumExactly();
  TestRegistryExportShape();
  TestTracerWritesChromeJson();
  TestSessionMetricsAgreeWithStats();
  TestMetricsOffRunsBitIdentical();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
