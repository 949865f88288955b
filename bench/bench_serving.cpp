// Serving bench: closed-loop load generation against RecServer, reporting
// latency percentiles and throughput as BENCH_serving.json
// (hsgd.run_report/v1).
//
// Scenarios:
//   sequential_8c  8 clients, max_batch=1 — every query is its own sweep
//   batched_8c     8 clients, micro-batching on — the same load coalesced
//   serving        the full configured load (--clients/--qps/--budget-ms)
//   refresh        the full load while a publisher swaps snapshots
//                  mid-flight every --refresh-ms
//
// Every response is checked against the serving invariants: its snapshot
// version must be one that was actually published, and its ranking must
// be sorted (descending score, ties by ascending item id) with finite
// scores — a violation counts as a torn query. The acceptance gate
// (exit 1, "accepted": false) is zero failed/torn queries across all
// scenarios; at full scale (--scale >= 1) batched_8c must also out-run
// sequential_8c, the paper-style payoff of the shared factor sweep.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_serve_common.h"
#include "core/recommender.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace hsgd::bench {
namespace {

using serve::FactorSnapshot;
using serve::RecServer;
using serve::ServeConfig;
using serve::SnapshotPtr;
using serve::TopKRequest;

/// Deterministic factor fill standing in for a trained model: the bench
/// measures the serving machinery, not model quality, and identical bytes
/// per seed keep run-to-run artifacts comparable.
Model BuildModel(int32_t num_users, int32_t num_items, int k,
                 uint32_t seed) {
  Model model(num_users, num_items, k);
  uint32_t state = seed * 2654435761u + 1;
  for (int32_t u = 0; u < num_users; ++u) {
    float* row = model.Row(u);
    for (int f = 0; f < k; ++f) {
      row[f] = static_cast<float>(Lcg(&state) >> 8) / 16777216.0f - 0.5f;
    }
  }
  for (int32_t v = 0; v < num_items; ++v) {
    float* col = model.Col(v);
    for (int f = 0; f < k; ++f) {
      col[f] = static_cast<float>(Lcg(&state) >> 8) / 16777216.0f - 0.5f;
    }
  }
  return model;
}

/// Sparse deterministic exclusions: every user has rated a handful of
/// items, so the rated-item skip path is exercised under load.
Ratings BuildRated(int32_t num_users, int32_t num_items) {
  Ratings rated;
  uint32_t state = 99;
  for (int32_t u = 0; u < num_users; ++u) {
    const int n = 3 + static_cast<int>(Lcg(&state) % 8);
    for (int i = 0; i < n; ++i) {
      rated.push_back(
          {u, static_cast<int32_t>(Lcg(&state) % num_items), 1.0f});
    }
  }
  return rated;
}

struct LoadResult {
  int64_t requests = 0;
  int64_t ok = 0;
  int64_t shed = 0;      // DeadlineExceeded
  int64_t rejected = 0;  // Unavailable
  int64_t failed = 0;    // any other error
  int64_t torn = 0;      // invariant-violating response
  double duration_s = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0, p99_ms = 0.0, mean_ms = 0.0;
  serve::ServeCounters counters;
};

/// Closed-loop load: `clients` threads submit back-to-back TopK queries
/// (paced to --qps when positive) for `duration_s`, with an 80/20 skew
/// toward a hot tenth of the user base. `max_version` bounds the versions
/// that may legally appear in responses (grows during refresh runs).
LoadResult RunLoad(RecServer* server, int clients, double duration_s,
                   double target_qps, int32_t num_users, int k,
                   const std::atomic<uint64_t>* max_version) {
  std::atomic<int64_t> requests{0}, ok{0}, shed{0}, rejected{0};
  std::atomic<int64_t> failed{0}, torn{0};
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  Stopwatch wall;
  const double per_client_interval =
      target_qps > 0.0 ? clients / target_qps : 0.0;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      uint32_t state = 1000003u * (c + 1);
      auto& lat = latencies[c];
      double next_send = wall.Seconds();
      while (wall.Seconds() < duration_s) {
        if (per_client_interval > 0.0) {
          // Open-ish pacing: keep to the per-client share of --qps
          // without drifting when a query runs long.
          while (wall.Seconds() < next_send) std::this_thread::yield();
          next_send += per_client_interval;
        }
        // 80/20 skew: most traffic hammers a hot tenth of the users, the
        // shape user-sharded queues and warm factor rows care about.
        const int32_t hot = std::max<int32_t>(1, num_users / 10);
        const int32_t user = (Lcg(&state) % 10) < 8
                                 ? static_cast<int32_t>(Lcg(&state) % hot)
                                 : static_cast<int32_t>(Lcg(&state) %
                                                        num_users);
        requests.fetch_add(1, std::memory_order_relaxed);
        auto response = server->Query({user, false, k});
        if (response.ok()) {
          if (!ResponseIntact(*response, max_version->load(), k)) {
            torn.fetch_add(1, std::memory_order_relaxed);
          } else {
            ok.fetch_add(1, std::memory_order_relaxed);
            lat.push_back(response->latency_s);
          }
        } else if (response.status().code() ==
                   StatusCode::kDeadlineExceeded) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else if (response.status().code() == StatusCode::kUnavailable) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  LoadResult result;
  result.duration_s = wall.Seconds();
  result.requests = requests.load();
  result.ok = ok.load();
  result.shed = shed.load();
  result.rejected = rejected.load();
  result.failed = failed.load();
  result.torn = torn.load();
  result.qps =
      result.duration_s > 0.0 ? result.ok / result.duration_s : 0.0;
  std::vector<double> merged;
  for (auto& lat : latencies) {
    merged.insert(merged.end(), lat.begin(), lat.end());
  }
  std::sort(merged.begin(), merged.end());
  if (!merged.empty()) {
    auto at = [&](double q) {
      const size_t idx = static_cast<size_t>(q * (merged.size() - 1));
      return merged[idx] * 1e3;
    };
    result.p50_ms = at(0.50);
    result.p99_ms = at(0.99);
    double sum = 0.0;
    for (double v : merged) sum += v;
    result.mean_ms = sum / merged.size() * 1e3;
  }
  result.counters = server->counters();
  return result;
}

obs::Json JsonLoad(const std::string& name, const LoadResult& r,
                   int clients, const ServeConfig& config) {
  return obs::Json::Object()
      .Set("scenario", obs::Json::Str(name))
      .Set("clients", obs::Json::Int(clients))
      .Set("shards", obs::Json::Int(config.shards))
      .Set("max_batch", obs::Json::Int(config.max_batch))
      .Set("duration_s", obs::Json::Double(r.duration_s))
      .Set("requests", obs::Json::Int(r.requests))
      .Set("ok", obs::Json::Int(r.ok))
      .Set("shed_deadline", obs::Json::Int(r.shed))
      .Set("rejected", obs::Json::Int(r.rejected))
      .Set("failed", obs::Json::Int(r.failed))
      .Set("torn", obs::Json::Int(r.torn))
      .Set("qps", obs::Json::Double(r.qps))
      .Set("p50_ms", obs::Json::Double(r.p50_ms))
      .Set("p99_ms", obs::Json::Double(r.p99_ms))
      .Set("mean_ms", obs::Json::Double(r.mean_ms))
      .Set("batches", obs::Json::Int(r.counters.batches))
      .Set("mean_batch_size",
           obs::Json::Double(r.counters.batches > 0
                                 ? static_cast<double>(r.counters.ok) /
                                       r.counters.batches
                                 : 0.0))
      .Set("deadline_miss", obs::Json::Int(r.counters.deadline_miss))
      .Set("snapshot_publishes", obs::Json::Int(r.counters.publishes));
}

void PrintLoad(const std::string& name, const LoadResult& r) {
  std::printf(
      "%-14s  %7lld ok  %6.0f qps  p50 %7.3fms  p99 %7.3fms  "
      "shed %lld  rejected %lld  failed %lld  torn %lld\n",
      name.c_str(), static_cast<long long>(r.ok), r.qps, r.p50_ms,
      r.p99_ms, static_cast<long long>(r.shed),
      static_cast<long long>(r.rejected),
      static_cast<long long>(r.failed), static_cast<long long>(r.torn));
}

}  // namespace
}  // namespace hsgd::bench

int main(int argc, char** argv) {
  using namespace hsgd;
  using namespace hsgd::bench;

  BenchContext ctx = ParseContext(
      argc, argv, /*default_epochs=*/1,
      {{"out", "<path>", "JSON report path (default BENCH_serving.json)"},
       {"clients", "<n>", "closed-loop client threads (default 16)"},
       {"duration", "<s>", "seconds per scenario (default 2)"},
       {"qps", "<n>", "target aggregate QPS; 0 = unpaced (default 0)"},
       {"topk", "<k>", "items per query (default 10)"},
       {"shards", "<n>", "server worker shards (default 4)"},
       {"batch", "<n>", "server max micro-batch (default 32)"},
       {"budget-ms", "<ms>",
        "latency budget for the serving/refresh scenarios; 0 disables "
        "shedding (default 250)"},
       {"refresh-ms", "<ms>",
        "snapshot publish interval in the refresh scenario (default 25)"}});
  const std::string out_path =
      ctx.flags.GetString("out", "BENCH_serving.json");
  const int clients =
      static_cast<int>(ctx.flags.GetInt("clients", 16));
  const double duration = ctx.flags.GetDouble("duration", 2.0);
  const double qps = ctx.flags.GetDouble("qps", 0.0);
  const int topk = static_cast<int>(ctx.flags.GetInt("topk", 10));
  const int shards = static_cast<int>(ctx.flags.GetInt("shards", 4));
  const int max_batch = static_cast<int>(ctx.flags.GetInt("batch", 32));
  const double budget_ms = ctx.flags.GetDouble("budget-ms", 250.0);
  const double refresh_ms = ctx.flags.GetDouble("refresh-ms", 25.0);

  // Catalog sized by --scale; the floor keeps the smoke run meaningful.
  const int32_t num_users = std::max<int32_t>(
      256, static_cast<int32_t>(60000 * ctx.scale_mult));
  const int32_t num_items = std::max<int32_t>(
      512, static_cast<int32_t>(24000 * ctx.scale_mult));
  const int rank = 32;

  std::printf("serving bench: %d users x %d items, rank %d, k=%d\n",
              num_users, num_items, rank, topk);

  // Snapshot generations for the refresh scenario: distinct factor
  // contents per version, built once up front so the publisher thread
  // does no model work mid-load.
  const Ratings rated = BuildRated(num_users, num_items);
  const int kGenerations = 4;
  std::vector<SnapshotPtr> generations;
  for (int g = 0; g < kGenerations; ++g) {
    Model model = BuildModel(num_users, num_items, rank,
                             static_cast<uint32_t>(ctx.seed + g));
    auto snap = FactorSnapshot::FromModel(
        model, rated, /*version=*/static_cast<uint64_t>(g + 1));
    HSGD_CHECK_OK(snap.status());
    generations.push_back(*snap);
  }
  std::atomic<uint64_t> max_version{1};

  obs::RunReport report("serving");
  report.config()
      .Set("num_users", obs::Json::Int(num_users))
      .Set("num_items", obs::Json::Int(num_items))
      .Set("rank", obs::Json::Int(rank))
      .Set("topk", obs::Json::Int(topk))
      .Set("clients", obs::Json::Int(clients))
      .Set("duration_s", obs::Json::Double(duration))
      .Set("target_qps", obs::Json::Double(qps))
      .Set("shards", obs::Json::Int(shards))
      .Set("max_batch", obs::Json::Int(max_batch))
      .Set("budget_ms", obs::Json::Double(budget_ms))
      .Set("refresh_ms", obs::Json::Double(refresh_ms))
      .Set("scale", obs::Json::Double(ctx.scale_mult))
      .Set("kernel", obs::Json::Str(KernelKindName(ctx.kernel)));

  auto make_server = [&](int batch, double budget_s) {
    ServeConfig config;
    config.shards = shards;
    config.max_batch = batch;
    config.latency_budget_s = budget_s;
    config.kernel = ctx.kernel;
    auto server = RecServer::Create(config, generations[0],
                                    ctx.obs.registry.get(),
                                    ctx.obs.tracer.get());
    HSGD_CHECK_OK(server.status());
    return std::move(*server);
  };

  int64_t total_failed = 0, total_torn = 0;

  // Batched vs sequential at 8 concurrent clients: identical load and
  // shard count; the only difference is whether the server may coalesce.
  PrintHeader("batched vs sequential (8 clients)");
  LoadResult sequential, batched;
  {
    auto server = make_server(/*batch=*/1, /*budget_s=*/0.0);
    sequential = RunLoad(server.get(), 8, duration, qps, num_users, topk,
                         &max_version);
    server->Shutdown();
  }
  {
    auto server = make_server(max_batch, /*budget_s=*/0.0);
    batched = RunLoad(server.get(), 8, duration, qps, num_users, topk,
                      &max_version);
    server->Shutdown();
  }
  PrintLoad("sequential_8c", sequential);
  PrintLoad("batched_8c", batched);
  const double speedup =
      sequential.qps > 0.0 ? batched.qps / sequential.qps : 0.0;
  std::printf("batched/sequential throughput: %.3fx\n", speedup);
  total_failed += sequential.failed + batched.failed;
  total_torn += sequential.torn + batched.torn;

  // The full configured load.
  PrintHeader("serving");
  LoadResult serving;
  {
    auto server = make_server(max_batch, budget_ms * 1e-3);
    serving = RunLoad(server.get(), clients, duration, qps, num_users,
                      topk, &max_version);
    server->Shutdown();
  }
  PrintLoad("serving", serving);
  total_failed += serving.failed;
  total_torn += serving.torn;

  // The same load with a publisher swapping snapshot generations
  // mid-flight: the gate is zero failed/torn queries through refreshes.
  PrintHeader("concurrent refresh");
  LoadResult refresh;
  int64_t publishes = 0;
  {
    auto server = make_server(max_batch, budget_ms * 1e-3);
    std::atomic<bool> stop{false};
    std::thread publisher([&] {
      int g = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            refresh_ms));
        const SnapshotPtr& next = generations[g % kGenerations];
        // Every generation's version was assigned up front, so advancing
        // max_version before Publish keeps the validity window correct.
        uint64_t seen = max_version.load();
        while (next->version() > seen &&
               !max_version.compare_exchange_weak(seen, next->version())) {
        }
        HSGD_CHECK_OK(server->Publish(next));
        ++publishes;
        ++g;
      }
    });
    refresh = RunLoad(server.get(), clients, duration, qps, num_users,
                      topk, &max_version);
    stop.store(true);
    publisher.join();
    // RunLoad read the counters while the publisher still ran; read them
    // again so the report's publishes include its last one.
    refresh.counters = server->counters();
    server->Shutdown();
  }
  PrintLoad("refresh", refresh);
  std::printf("snapshots published mid-load: %lld\n",
              static_cast<long long>(publishes));
  total_failed += refresh.failed;
  total_torn += refresh.torn;

  const bool batched_faster = speedup > 1.0;
  const bool clean = total_failed == 0 && total_torn == 0;
  // Throughput is gated only at full scale — the CI smoke run's tiny
  // catalog fits in cache either way and the ratio is noise there.
  const bool accepted =
      clean && (ctx.scale_mult < 1.0 || batched_faster);

  ServeConfig report_config;
  report_config.shards = shards;
  report_config.max_batch = max_batch;
  report.results()
      .Push(JsonLoad("sequential_8c", sequential, 8,
                     [&] {
                       ServeConfig c = report_config;
                       c.max_batch = 1;
                       return c;
                     }()))
      .Push(JsonLoad("batched_8c", batched, 8, report_config))
      .Push(JsonLoad("serving", serving, clients, report_config))
      .Push(JsonLoad("refresh", refresh, clients, report_config)
                .Set("mid_load_publishes", obs::Json::Int(publishes)));
  report.config()
      .Set("batched_speedup", obs::Json::Double(speedup))
      .Set("batched_faster", obs::Json::Bool(batched_faster))
      .Set("accepted", obs::Json::Bool(accepted));

  WriteObsArtifacts(ctx, &report);
  HSGD_CHECK_OK(report.WriteTo(out_path));
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!accepted) {
    std::fprintf(stderr, "FAILED: serving acceptance violated "
                         "(failed=%lld torn=%lld speedup=%.3f)\n",
                 static_cast<long long>(total_failed),
                 static_cast<long long>(total_torn), speedup);
    return 1;
  }
  return 0;
}
