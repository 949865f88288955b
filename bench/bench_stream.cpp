// Online-training bench: concurrent train+serve from one process,
// reporting BENCH_stream.json (hsgd.run_report/v1).
//
// Scenarios:
//   live     an OnlineTrainer drives Ingest -> TrainDirty ->
//            PublishSnapshot rounds against a live RecServer while client
//            threads hammer it with raw-id queries. Every response is
//            checked against the serving invariants (version within the
//            published window, sorted finite scores), and every round's
//            freshly-streamed cold user is probed from the driver thread:
//            typed NotFound before the covering publish, servable after.
//   refresh  RMSE parity: the same synthetic data once as warm-train +
//            chunked incremental refresh, once as a from-scratch full
//            retrain run to the SAME update count (sim.nnz_processed).
//
// Acceptance (exit 1, "accepted": false): the live scenario completes at
// least --publishes live publishes with zero torn/failed queries and zero
// cold-start violations, and the incremental-refresh RMSE lands within
// 2% of the full retrain's at equal update count.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_serve_common.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stream/stream.h"

namespace hsgd::bench {
namespace {

using serve::RecServer;
using serve::ServeConfig;
using stream::OnlineTrainer;
using stream::SyntheticStream;
using stream::SyntheticStreamSpec;

struct LiveResult {
  int64_t publishes = 0;
  int64_t ingested = 0;
  int64_t cold_users = 0;
  int64_t cold_items = 0;
  int64_t queries = 0;
  int64_t ok = 0;
  int64_t not_found = 0;  // expected: probes for never-streamed ids
  int64_t failed = 0;
  int64_t torn = 0;
  int64_t cold_violations = 0;
  double train_wall_s = 0.0;
  double final_test_rmse = 0.0;
};

struct RefreshResult {
  double online_rmse = 0.0;
  double full_rmse = 0.0;
  double rmse_ratio = 0.0;
  int64_t online_nnz = 0;
  int64_t full_nnz = 0;
  int online_epochs = 0;
  int full_epochs = 0;
  int64_t streamed = 0;
  bool within_bound = false;
};

}  // namespace
}  // namespace hsgd::bench

int main(int argc, char** argv) {
  using namespace hsgd;
  using namespace hsgd::bench;

  BenchContext ctx = ParseContext(
      argc, argv, /*default_epochs=*/30,
      {{"out", "<path>", "JSON report path (default BENCH_stream.json)"},
       {"publishes", "<n>",
        "live snapshot publishes to drive (default 20)"},
       {"clients", "<n>", "query client threads (default 4)"},
       {"batch", "<n>", "ratings ingested per live round (default 0: "
        "sized by --scale)"},
       {"warm-epochs", "<n>",
        "full epochs before streaming starts (default 3)"},
       {"chunks", "<n>",
        "stream chunks in the refresh scenario (default 8)"},
       {"consolidate", "<n>",
        "full epochs closing the refresh scenario (default 3)"},
       {"topk", "<k>", "items per query (default 10)"},
       {"rmse-bound", "<x>",
        "refresh acceptance: online_rmse <= full_rmse * x (default "
        "1.02; smoke scales need slack — tiny data magnifies the "
        "training-order difference)"}});
  const std::string out_path =
      ctx.flags.GetString("out", "BENCH_stream.json");
  const int target_publishes =
      static_cast<int>(ctx.flags.GetInt("publishes", 20));
  const int clients = static_cast<int>(ctx.flags.GetInt("clients", 4));
  const int warm_epochs =
      static_cast<int>(ctx.flags.GetInt("warm-epochs", 3));
  const int chunks = static_cast<int>(ctx.flags.GetInt("chunks", 8));
  const int consolidate =
      static_cast<int>(ctx.flags.GetInt("consolidate", 3));
  const int topk = static_cast<int>(ctx.flags.GetInt("topk", 10));
  const double rmse_bound = ctx.flags.GetDouble("rmse-bound", 1.02);
  HSGD_CHECK(target_publishes > 0 && clients > 0 && warm_epochs > 0 &&
             chunks > 0 && consolidate >= 0 && topk > 0 &&
             rmse_bound >= 1.0);

  obs::RunReport report("stream");
  report.config()
      .Set("publishes", obs::Json::Int(target_publishes))
      .Set("clients", obs::Json::Int(clients))
      .Set("warm_epochs", obs::Json::Int(warm_epochs))
      .Set("chunks", obs::Json::Int(chunks))
      .Set("consolidate", obs::Json::Int(consolidate))
      .Set("topk", obs::Json::Int(topk))
      .Set("rmse_bound", obs::Json::Double(rmse_bound))
      .Set("scale", obs::Json::Double(ctx.scale_mult))
      .Set("seed", obs::Json::Int(static_cast<int64_t>(ctx.seed)))
      .Set("kernel", obs::Json::Str(KernelKindName(ctx.kernel)));

  // ---- Scenario 1: live train+serve ------------------------------------
  LiveResult live;
  {
    const int32_t warm_rows = std::max<int32_t>(
        400, static_cast<int32_t>(3000 * ctx.scale_mult));
    const int32_t warm_cols = std::max<int32_t>(
        300, static_cast<int32_t>(2000 * ctx.scale_mult));
    const int64_t batch = [&] {
      const int64_t flag = ctx.flags.GetInt("batch", 0);
      if (flag > 0) return flag;
      return std::max<int64_t>(
          200, static_cast<int64_t>(1200 * ctx.scale_mult));
    }();
    // Raw vocabulary offset far from the dense index space so an
    // identity-fallback bug answers wrong instead of silently right.
    const int64_t kUserBase = 10000000;
    const int64_t kItemBase = 20000000;

    SyntheticSpec spec;
    spec.num_rows = warm_rows;
    spec.num_cols = warm_cols;
    spec.train_nnz =
        static_cast<int64_t>(warm_rows) * warm_cols / 25;
    spec.test_nnz = spec.train_nnz / 10;
    spec.params.k = 16;
    spec.params.learning_rate = 0.01f;
    auto ds = GenerateSynthetic(spec, ctx.seed);
    HSGD_CHECK_OK(ds.status());

    TrainConfig cfg = MakeConfig(Algorithm::kHsgdStar, ctx, *ds);
    cfg.use_dataset_target = false;
    cfg.max_epochs = warm_epochs + target_publishes + 8;
    auto session = Session::Create(*std::move(ds), cfg);
    HSGD_CHECK_OK(session.status());
    (*session)->SetObservability(ctx.obs.Sinks());
    for (int e = 0; e < warm_epochs; ++e) {
      HSGD_CHECK_OK((*session)->RunEpoch().status());
    }

    io::IdMap users, items;
    for (int32_t i = 0; i < warm_rows; ++i) users.Assign(kUserBase + i);
    for (int32_t i = 0; i < warm_cols; ++i) items.Assign(kItemBase + i);

    ServeConfig serve_config;
    serve_config.kernel = ctx.kernel;
    // No tracer: the session's lanes (tid 0 and up, virtual seconds)
    // would share their tids with the shards' (wall seconds).
    // bench_serving traces serving.
    auto server = RecServer::Create(serve_config, nullptr,
                                    ctx.obs.registry.get());
    HSGD_CHECK_OK(server.status());
    RecServer* srv = server->get();

    auto trainer = OnlineTrainer::Create(
        *std::move(session), std::move(users), std::move(items),
        [srv](serve::SnapshotPtr snap) { return srv->Publish(std::move(snap)); },
        ctx.obs.registry.get());
    HSGD_CHECK_OK(trainer.status());
    OnlineTrainer* ot = trainer->get();

    // Published-version window for the torn check: advanced BEFORE the
    // publish lands so a client can never legally see a "future" version.
    std::atomic<uint64_t> max_version{1};
    HSGD_CHECK_OK(ot->PublishSnapshot().status());

    SyntheticStreamSpec stream_spec;
    stream_spec.warm_users = warm_rows;
    stream_spec.warm_items = warm_cols;
    stream_spec.cold_user_rate = 0.01;
    stream_spec.cold_item_rate = 0.005;
    stream_spec.raw_user_base = kUserBase;
    stream_spec.raw_item_base = kItemBase;
    stream_spec.seed = ctx.seed + 17;
    SyntheticStream arrivals(stream_spec);

    std::printf("live: %d x %d warm, batch %lld, %d publishes, "
                "%d clients\n",
                warm_rows, warm_cols, static_cast<long long>(batch),
                target_publishes, clients);

    std::atomic<bool> stop{false};
    std::atomic<int64_t> queries{0}, ok{0}, not_found{0}, failed{0},
        torn{0};
    std::vector<std::thread> client_threads;
    for (int c = 0; c < clients; ++c) {
      client_threads.emplace_back([&, c] {
        uint32_t state = 7919u * (c + 1);
        while (!stop.load(std::memory_order_relaxed)) {
          // Warm raw ids always resolve; one probe in 32 asks for a raw
          // id that is never streamed and must stay typed NotFound.
          const bool probe = (Lcg(&state) % 32) == 0;
          const int64_t user =
              probe ? kUserBase - 1 - static_cast<int64_t>(Lcg(&state) % 1000)
                    : kUserBase + static_cast<int64_t>(
                                      Lcg(&state) %
                                      static_cast<uint32_t>(warm_rows));
          queries.fetch_add(1, std::memory_order_relaxed);
          auto response = srv->Query({user, /*raw=*/true, topk});
          if (probe) {
            if (response.status().code() == StatusCode::kNotFound) {
              not_found.fetch_add(1, std::memory_order_relaxed);
            } else {
              failed.fetch_add(1, std::memory_order_relaxed);
            }
            continue;
          }
          if (!response.ok()) {
            failed.fetch_add(1, std::memory_order_relaxed);
          } else if (!ResponseIntact(*response, max_version.load(), topk)) {
            torn.fetch_add(1, std::memory_order_relaxed);
          } else {
            ok.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    Stopwatch train_wall;
    double last_rmse = 0.0;
    for (int round = 0; round < target_publishes; ++round) {
      const int32_t users_before = ot->users().size();
      auto ingested = ot->Ingest(arrivals.NextBatch(batch));
      HSGD_CHECK_OK(ingested.status());
      // A cold user streamed this round must be invisible until the
      // publish whose maps cover it — probed from the driver thread, so
      // the ordering is deterministic, not racy.
      int64_t cold_probe = -1;
      if (ingested->cold_users > 0) {
        cold_probe = ot->users().Raw(users_before);
        auto early = srv->Query({cold_probe, /*raw=*/true, topk});
        if (early.status().code() != StatusCode::kNotFound) {
          ++live.cold_violations;
        }
      }
      auto point = ot->TrainDirty();
      HSGD_CHECK_OK(point.status());
      last_rmse = point->test_rmse;
      max_version.store(ot->version() + 1);
      HSGD_CHECK_OK(ot->PublishSnapshot().status());
      if (cold_probe >= 0) {
        auto after = srv->Query({cold_probe, /*raw=*/true, topk});
        if (!after.ok()) ++live.cold_violations;
      }
    }
    live.train_wall_s = train_wall.Seconds();
    stop.store(true);
    for (auto& thread : client_threads) thread.join();
    srv->Shutdown();

    live.publishes = ot->publishes();
    live.ingested = ot->session().appended_nnz();
    live.cold_users = arrivals.cold_users_emitted();
    live.cold_items = arrivals.cold_items_emitted();
    live.queries = queries.load();
    live.ok = ok.load();
    live.not_found = not_found.load();
    live.failed = failed.load();
    live.torn = torn.load();
    live.final_test_rmse = last_rmse;

    std::printf("live: %lld publishes, %lld ingested (%lld cold users, "
                "%lld cold items), %lld queries (%lld ok, %lld probes, "
                "%lld failed, %lld torn, %lld cold violations)\n",
                static_cast<long long>(live.publishes),
                static_cast<long long>(live.ingested),
                static_cast<long long>(live.cold_users),
                static_cast<long long>(live.cold_items),
                static_cast<long long>(live.queries),
                static_cast<long long>(live.ok),
                static_cast<long long>(live.not_found),
                static_cast<long long>(live.failed),
                static_cast<long long>(live.torn),
                static_cast<long long>(live.cold_violations));
  }

  // ---- Scenario 2: incremental refresh vs full retrain ------------------
  RefreshResult refresh;
  {
    const int32_t rows = std::max<int32_t>(
        500, static_cast<int32_t>(4000 * ctx.scale_mult));
    const int32_t cols = std::max<int32_t>(
        400, static_cast<int32_t>(3000 * ctx.scale_mult));
    SyntheticSpec spec;
    spec.num_rows = rows;
    spec.num_cols = cols;
    spec.train_nnz = static_cast<int64_t>(rows) * cols / 20;
    spec.test_nnz = spec.train_nnz / 10;
    spec.params.k = 16;
    spec.params.learning_rate = 0.01f;
    auto full_or = GenerateSynthetic(spec, ctx.seed + 1);
    HSGD_CHECK_OK(full_or.status());
    const Dataset full = *std::move(full_or);

    // The warm region is the leading 80% x 80% of the index space; the
    // remainder arrives as a stream.
    const int32_t warm_rows = rows * 4 / 5;
    const int32_t warm_cols = cols * 4 / 5;
    Dataset warm;
    warm.num_rows = warm_rows;
    warm.num_cols = warm_cols;
    warm.params = full.params;
    Ratings streamed;
    for (const Rating& r : full.train) {
      if (r.u < warm_rows && r.v < warm_cols) {
        warm.train.push_back(r);
      } else {
        streamed.push_back(r);
      }
    }
    for (const Rating& r : full.test) {
      if (r.u < warm_rows && r.v < warm_cols) warm.test.push_back(r);
    }
    refresh.streamed = static_cast<int64_t>(streamed.size());

    TrainConfig cfg = MakeConfig(Algorithm::kHsgdStar, ctx, full);
    cfg.use_dataset_target = false;
    cfg.max_epochs = warm_epochs + chunks + consolidate + 64;

    std::printf("refresh: %d x %d, %lld warm + %lld streamed ratings, "
                "%d chunks\n",
                rows, cols, static_cast<long long>(warm.train.size()),
                static_cast<long long>(streamed.size()), chunks);

    // Online: warm-train, then chunked ingest + incremental epochs, then
    // full consolidation epochs over the grown dataset.
    auto online = Session::Create(warm, cfg);
    HSGD_CHECK_OK(online.status());
    for (int e = 0; e < warm_epochs; ++e) {
      HSGD_CHECK_OK((*online)->RunEpoch().status());
    }
    const size_t per_chunk = (streamed.size() + chunks - 1) / chunks;
    for (size_t begin = 0; begin < streamed.size(); begin += per_chunk) {
      const size_t end = std::min(streamed.size(), begin + per_chunk);
      Ratings chunk(streamed.begin() + begin, streamed.begin() + end);
      HSGD_CHECK_OK((*online)->AppendRatings(chunk));
      HSGD_CHECK_OK((*online)->RunIncrementalEpoch().status());
    }
    for (int e = 0; e < consolidate; ++e) {
      HSGD_CHECK_OK((*online)->RunEpoch().status());
    }
    refresh.online_nnz = (*online)->stats().sim.nnz_processed;
    refresh.online_epochs = (*online)->epochs_run();

    // Full retrain on everything, run to the SAME update count.
    auto retrain = Session::Create(full, cfg);
    HSGD_CHECK_OK(retrain.status());
    while ((*retrain)->stats().sim.nnz_processed < refresh.online_nnz) {
      HSGD_CHECK_OK((*retrain)->RunEpoch().status());
    }
    refresh.full_nnz = (*retrain)->stats().sim.nnz_processed;
    refresh.full_epochs = (*retrain)->epochs_run();

    // Both models scored on the same held-out set: the full test ratings
    // the online model's final extent covers (a test-only cold id has no
    // factors on the online side).
    const Model& online_model = (*online)->model();
    Ratings eval_test;
    for (const Rating& r : full.test) {
      if (r.u < online_model.num_rows() && r.v < online_model.num_cols()) {
        eval_test.push_back(r);
      }
    }
    HSGD_CHECK(!eval_test.empty());
    ThreadPool eval_pool(static_cast<size_t>(std::max(1, ctx.threads)));
    refresh.online_rmse = Rmse(online_model, eval_test, &eval_pool);
    refresh.full_rmse = Rmse((*retrain)->model(), eval_test, &eval_pool);
    refresh.rmse_ratio =
        refresh.full_rmse > 0.0 ? refresh.online_rmse / refresh.full_rmse
                                : 0.0;
    refresh.within_bound =
        refresh.online_rmse <= refresh.full_rmse * rmse_bound;

    std::printf("refresh: online rmse %.5f in %d epochs (%lld updates) "
                "vs full %.5f in %d epochs (%lld updates) -> ratio "
                "%.4f\n",
                refresh.online_rmse, refresh.online_epochs,
                static_cast<long long>(refresh.online_nnz),
                refresh.full_rmse, refresh.full_epochs,
                static_cast<long long>(refresh.full_nnz),
                refresh.rmse_ratio);
  }

  const bool live_clean = live.publishes >= target_publishes &&
                          live.failed == 0 && live.torn == 0 &&
                          live.cold_violations == 0;
  const bool accepted = live_clean && refresh.within_bound;

  report.results()
      .Push(obs::Json::Object()
                .Set("scenario", obs::Json::Str("live"))
                .Set("publishes", obs::Json::Int(live.publishes))
                .Set("ingested", obs::Json::Int(live.ingested))
                .Set("cold_users", obs::Json::Int(live.cold_users))
                .Set("cold_items", obs::Json::Int(live.cold_items))
                .Set("queries", obs::Json::Int(live.queries))
                .Set("ok", obs::Json::Int(live.ok))
                .Set("cold_probes", obs::Json::Int(live.not_found))
                .Set("failed", obs::Json::Int(live.failed))
                .Set("torn", obs::Json::Int(live.torn))
                .Set("cold_violations",
                     obs::Json::Int(live.cold_violations))
                .Set("train_wall_s", obs::Json::Double(live.train_wall_s))
                .Set("final_test_rmse",
                     obs::Json::Double(live.final_test_rmse)))
      .Push(obs::Json::Object()
                .Set("scenario", obs::Json::Str("refresh"))
                .Set("streamed", obs::Json::Int(refresh.streamed))
                .Set("online_rmse", obs::Json::Double(refresh.online_rmse))
                .Set("full_rmse", obs::Json::Double(refresh.full_rmse))
                .Set("rmse_ratio", obs::Json::Double(refresh.rmse_ratio))
                .Set("online_epochs", obs::Json::Int(refresh.online_epochs))
                .Set("full_epochs", obs::Json::Int(refresh.full_epochs))
                .Set("online_nnz", obs::Json::Int(refresh.online_nnz))
                .Set("full_nnz", obs::Json::Int(refresh.full_nnz))
                .Set("failed", obs::Json::Int(0))
                .Set("torn", obs::Json::Int(0))
                .Set("within_bound",
                     obs::Json::Bool(refresh.within_bound)));
  report.config().Set("accepted", obs::Json::Bool(accepted));

  WriteObsArtifacts(ctx, &report);
  HSGD_CHECK_OK(report.WriteTo(out_path));
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!accepted) {
    std::fprintf(stderr,
                 "FAILED: stream acceptance violated (publishes=%lld "
                 "failed=%lld torn=%lld cold_violations=%lld "
                 "rmse_ratio=%.4f)\n",
                 static_cast<long long>(live.publishes),
                 static_cast<long long>(live.failed),
                 static_cast<long long>(live.torn),
                 static_cast<long long>(live.cold_violations),
                 refresh.rmse_ratio);
    return 1;
  }
  return 0;
}
