// Serving subsystem tests: snapshot publication under concurrent readers
// (never a torn model mix), BatchTopK bit-identical to a brute-force
// reference, deadline shedding accounted exactly, and cold users answered
// with a typed Status instead of a crash. TopK edge cases on hand-built
// models live in recommender_test.

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "brute_force_topk.h"
#include "core/dataset.h"
#include "core/model.h"
#include "core/session.h"
#include "io/loader.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "test_main.h"
#include "util/strings.h"

namespace hsgd {
namespace {

using serve::FactorRecycler;
using serve::FactorSnapshot;
using serve::RecServer;
using serve::ServeConfig;
using serve::SnapshotHolder;
using serve::SnapshotPtr;
using serve::TopKQuery;
using serve::TopKRequest;
using testing::BruteForceTopK;

/// A model where score(u, v) == weight for EVERY (u, v): p_u = (1, 0),
/// q_v = (weight, 0). A snapshot built from it answers every query with
/// scores uniformly equal to `weight`, so any mixing of two snapshots
/// inside one response is detectable as non-uniform scores.
SnapshotPtr UniformSnapshot(int32_t num_users, int32_t num_items,
                            float weight, uint64_t version) {
  Model model(num_users, num_items, /*k=*/2);
  for (int32_t u = 0; u < num_users; ++u) model.Row(u)[0] = 1.0f;
  for (int32_t v = 0; v < num_items; ++v) model.Col(v)[0] = weight;
  auto snap = FactorSnapshot::FromModel(model, Ratings{}, version);
  EXPECT_TRUE(snap.ok());
  return snap.ok() ? *snap : nullptr;
}

/// Deterministic pseudo-random factors (tiny LCG; no libm, no RNG state
/// shared with anything else).
float NextFloat(uint32_t* state) {
  *state = *state * 1664525u + 1013904223u;
  return static_cast<float>(*state >> 8) / 16777216.0f * 2.0f - 1.0f;
}

/// A model with LCG-drawn factors in [-1, 1).
Model RandomModel(int32_t num_users, int32_t num_items, int k,
                  uint32_t seed) {
  Model model(num_users, num_items, k);
  uint32_t state = seed;
  for (int32_t u = 0; u < num_users; ++u) {
    for (int f = 0; f < k; ++f) model.Row(u)[f] = NextFloat(&state);
  }
  for (int32_t v = 0; v < num_items; ++v) {
    for (int f = 0; f < k; ++f) model.Col(v)[f] = NextFloat(&state);
  }
  return model;
}

/// One TopK query as a one-query batch.
StatusOr<std::vector<ScoredItem>> TopK(const FactorSnapshot& snapshot,
                                       int32_t user, int k) {
  const TopKQuery query{user, k};
  return std::move(serve::BatchTopK(snapshot, &query, 1).front());
}

void TestSnapshotSwapUnderConcurrentReaders() {
  SnapshotHolder holder;
  const int kVersions = 2;
  SnapshotPtr snaps[kVersions] = {
      UniformSnapshot(4, 64, 1.0f, 1),
      UniformSnapshot(4, 64, 2.0f, 2),
  };
  EXPECT_TRUE(holder.PublishValidated(snaps[0]).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> bad{0};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::vector<float> scratch;
      while (!stop.load(std::memory_order_relaxed)) {
        SnapshotPtr snap = holder.Acquire();
        if (snap == nullptr) {
          bad.fetch_add(1);
          continue;
        }
        // The snapshot a reader acquired must be internally consistent:
        // its version tags the weight every score must equal, even while
        // the publisher swaps snapshots underneath us.
        const float want = static_cast<float>(snap->version());
        TopKQuery query{0, 8};
        auto results = serve::BatchTopK(*snap, &query, 1, nullptr, &scratch);
        if (!results[0].ok()) {
          bad.fetch_add(1);
          continue;
        }
        for (const ScoredItem& item : *results[0]) {
          if (item.score != want) bad.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }

  // Publish only once a reader has completed a read (good or bad): on a
  // loaded host the publisher could otherwise finish all 2000 publishes
  // before any reader thread starts. Yielding inside the loop lets the
  // readers interleave with the swaps on a single core too.
  while (reads.load() + bad.load() == 0) std::this_thread::yield();
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(holder.PublishValidated(snaps[i % kVersions]).ok());
    if (i % 16 == 0) std::this_thread::yield();
  }
  stop.store(true);
  for (auto& thread : readers) thread.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_LT(0, reads.load());
  // The last published snapshot is the one served now.
  SnapshotPtr last = holder.Acquire();
  EXPECT_TRUE(last != nullptr);
  if (last != nullptr) EXPECT_EQ(last->version(), 2u);
}

void TestBatchTopKMatchesBruteForceBitwise() {
  const int32_t kUsers = 6;
  const int32_t kItems = 3000;  // spans 3 tiles of kTopKTile
  Model model = RandomModel(kUsers, kItems, /*k=*/24, /*seed=*/42);
  Ratings rated;
  for (int32_t u = 0; u < kUsers; ++u) {
    for (int32_t v = u; v < kItems; v += 7 + u) rated.push_back({u, v, 1.0f});
  }
  auto snap = FactorSnapshot::FromModel(model, rated, /*version=*/7);
  EXPECT_TRUE(snap.ok());
  if (!snap.ok()) return;

  std::vector<TopKQuery> queries;
  for (int32_t u = 0; u < kUsers; ++u) queries.push_back({u, 10 + u});
  std::vector<float> scratch;
  auto batched =
      serve::BatchTopK(**snap, queries.data(), queries.size(), nullptr,
                       &scratch);
  EXPECT_EQ(batched.size(), queries.size());

  for (size_t i = 0; i < queries.size() && i < batched.size(); ++i) {
    EXPECT_TRUE(batched[i].ok());
    if (!batched[i].ok()) continue;
    // Bitwise, not approximate: score_block equals dot bit for bit.
    EXPECT_SAME_TOPK(*batched[i], BruteForceTopK(model, rated,
                                                 queries[i].user,
                                                 queries[i].k));
    // A query's answer does not depend on the rest of its batch.
    auto alone = TopK(**snap, queries[i].user, queries[i].k);
    EXPECT_TRUE(alone.ok());
    if (alone.ok()) EXPECT_SAME_TOPK(*batched[i], *alone);
  }
}

void TestServerAnswersMatchBruteForce() {
  const int32_t kUsers = 8;
  const int32_t kItems = 500;
  Model model = RandomModel(kUsers, kItems, /*k=*/8, /*seed=*/7);
  Ratings rated = {{0, 3, 1.0f}, {0, 4, 1.0f}, {5, 100, 1.0f}};
  auto snap = FactorSnapshot::FromModel(model, rated, 1);
  EXPECT_TRUE(snap.ok());
  if (!snap.ok()) return;

  ServeConfig config;
  config.shards = 2;
  auto server = RecServer::Create(config, *snap);
  EXPECT_TRUE(server.ok());
  if (!server.ok()) return;

  // Overlapped submits across shards; every answer must equal the
  // brute-force reference.
  std::vector<std::future<StatusOr<serve::TopKResponse>>> futures;
  for (int32_t u = 0; u < kUsers; ++u) {
    TopKRequest request;
    request.user = u;
    request.k = 9;
    futures.push_back((*server)->Submit(request));
  }
  for (int32_t u = 0; u < kUsers; ++u) {
    auto response = futures[u].get();
    EXPECT_TRUE(response.ok());
    if (!response.ok()) continue;
    EXPECT_EQ(response->snapshot_version, 1u);
    EXPECT_SAME_TOPK(response->items, BruteForceTopK(model, rated, u, 9));
  }

  (*server)->Shutdown();
  auto counters = (*server)->counters();
  EXPECT_EQ(counters.requests, kUsers);
  EXPECT_EQ(counters.ok, kUsers);
  EXPECT_EQ(counters.shed_deadline, 0);
  EXPECT_EQ(counters.rejected, 0);
  // Post-shutdown submits are rejected, typed Unavailable.
  auto late = (*server)->Query({0, false, 3});
  EXPECT_TRUE(late.status().code() == StatusCode::kUnavailable);
}

void TestMidLoadSwapNeverTorn() {
  SnapshotPtr snaps[2] = {
      UniformSnapshot(16, 256, 1.0f, 1),
      UniformSnapshot(16, 256, 2.0f, 2),
  };
  ServeConfig config;
  config.shards = 4;
  config.max_batch = 8;
  auto server = RecServer::Create(config, snaps[0]);
  EXPECT_TRUE(server.ok());
  if (!server.ok()) return;

  std::atomic<bool> stop{false};
  std::atomic<int64_t> bad{0};
  std::atomic<int64_t> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      int32_t user = c % 16;
      while (!stop.load(std::memory_order_relaxed)) {
        auto response = (*server)->Query({user, false, 5});
        if (!response.ok()) {
          bad.fetch_add(1);
          continue;
        }
        // Every score in one response must match the version that claims
        // to have produced it — a mixed response means a torn swap.
        const float want = static_cast<float>(response->snapshot_version);
        if (response->snapshot_version != 1 &&
            response->snapshot_version != 2) {
          bad.fetch_add(1);
        }
        for (const ScoredItem& item : response->items) {
          if (item.score != want) bad.fetch_add(1);
        }
        answered.fetch_add(1);
        user = (user + 3) % 16;
      }
    });
  }
  for (int i = 0; i < 500; ++i) {
    (*server)->Publish(snaps[(i + 1) % 2]);
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& thread : clients) thread.join();
  (*server)->Shutdown();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_LT(0, answered.load());
  auto counters = (*server)->counters();
  EXPECT_EQ(counters.ok, answered.load());
  EXPECT_EQ(counters.publishes, 501);  // initial + 500 swaps
}

void TestDeadlineSheddingCountsExactly() {
  SnapshotPtr snap = UniformSnapshot(4, 2048, 1.0f, 1);
  ServeConfig config;
  config.shards = 1;
  config.max_batch = 1;  // one query per sweep: the queue builds up
  config.max_queue = 0;  // unbounded, so nothing is rejected
  config.latency_budget_s = 1e-9;  // everything queued is over budget
  auto server = RecServer::Create(config, snap);
  EXPECT_TRUE(server.ok());
  if (!server.ok()) return;

  const int kRequests = 256;
  std::vector<std::future<StatusOr<serve::TopKResponse>>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back((*server)->Submit({i % 4, false, 10}));
  }
  int64_t ok = 0, shed = 0, other = 0;
  for (auto& future : futures) {
    auto response = future.get();
    if (response.ok()) {
      ++ok;
    } else if (response.status().code() == StatusCode::kDeadlineExceeded) {
      ++shed;
    } else {
      ++other;
    }
  }
  (*server)->Shutdown();

  EXPECT_EQ(other, 0);
  EXPECT_EQ(ok + shed, kRequests);
  EXPECT_LT(0, shed);  // a 1ns budget must shed under a 256-deep backlog
  auto counters = (*server)->counters();
  EXPECT_EQ(counters.requests, kRequests);
  EXPECT_EQ(counters.ok, ok);
  EXPECT_EQ(counters.shed_deadline, shed);
  EXPECT_EQ(counters.rejected, 0);
  // Anything that did complete took far longer than 1ns end to end.
  EXPECT_EQ(counters.deadline_miss, ok);
}

void TestColdUserIsTypedNotFatal() {
  // A snapshot with real id maps: raw user ids 100/200/300.
  io::IdMap users, items;
  users.Assign(100);
  users.Assign(200);
  users.Assign(300);
  for (int64_t raw = 1000; raw < 1008; ++raw) items.Assign(raw);
  Model model(3, 8, 4);
  model.SetDense(std::vector<float>(3 * 4, 0.5f),
                 std::vector<float>(8 * 4, 0.25f));
  auto snap = FactorSnapshot::FromModel(model, Ratings{}, 1, &users, &items);
  EXPECT_TRUE(snap.ok());
  if (!snap.ok()) return;
  EXPECT_TRUE((*snap)->has_id_maps());

  auto server = RecServer::Create(ServeConfig{}, *snap);
  EXPECT_TRUE(server.ok());
  if (!server.ok()) return;

  // Known raw user resolves and translates items back to raw ids.
  auto warm = (*server)->Query({200, /*raw=*/true, 3});
  EXPECT_TRUE(warm.ok());
  if (warm.ok()) {
    EXPECT_EQ(warm->items.size(), 3u);
    EXPECT_EQ(warm->raw_items.size(), 3u);
    for (int64_t raw : warm->raw_items) {
      EXPECT_TRUE(raw >= 1000 && raw < 1008);
    }
  }

  // A raw id the model never trained on: typed NotFound, server intact.
  auto cold = (*server)->Query({12345, /*raw=*/true, 3});
  EXPECT_TRUE(cold.status().code() == StatusCode::kNotFound);
  // Dense queries out of range are InvalidArgument, also non-fatal.
  auto oob = (*server)->Query({99, /*raw=*/false, 3});
  EXPECT_TRUE(oob.status().code() == StatusCode::kInvalidArgument);

  // The server still answers after the failures.
  auto again = (*server)->Query({100, /*raw=*/true, 2});
  EXPECT_TRUE(again.ok());
  auto counters = (*server)->counters();
  EXPECT_EQ(counters.cold_users, 1);
  EXPECT_EQ(counters.invalid, 1);
  EXPECT_EQ(counters.ok, 2);
}

/// Every serve.* registry counter and the ServeCounters field it must
/// equal, written out apart from the server's own table so that a row
/// there pairing the wrong name or field shows up here.
struct ServeCounterName {
  const char* metric;
  int64_t serve::ServeCounters::*field;
};
constexpr ServeCounterName kServeCounterNames[] = {
    {"serve.requests", &serve::ServeCounters::requests},
    {"serve.ok", &serve::ServeCounters::ok},
    {"serve.shed", &serve::ServeCounters::shed_deadline},
    {"serve.rejected", &serve::ServeCounters::rejected},
    {"serve.deadline_miss", &serve::ServeCounters::deadline_miss},
    {"serve.cold_users", &serve::ServeCounters::cold_users},
    {"serve.invalid", &serve::ServeCounters::invalid},
    {"serve.batches", &serve::ServeCounters::batches},
    {"serve.snapshot_publishes", &serve::ServeCounters::publishes},
    {"serve.publish_rejected", &serve::ServeCounters::publish_rejected},
    {"serve.breaker.rejected", &serve::ServeCounters::breaker_rejected},
    {"serve.breaker.predictive_rejected",
     &serve::ServeCounters::predictive_rejected},
    {"serve.breaker.opens", &serve::ServeCounters::breaker_opens},
    {"serve.breaker.half_opens", &serve::ServeCounters::breaker_half_opens},
    {"serve.breaker.closes", &serve::ServeCounters::breaker_closes},
};

/// `server`'s registry reads exactly its counters(), and its version
/// gauge the version it serves.
void ExpectRegistryMatchesCounters(const obs::MetricsRegistry& registry,
                                   const RecServer& server) {
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const serve::ServeCounters counters = server.counters();
  for (const ServeCounterName& name : kServeCounterNames) {
    const int64_t metric = snap.CounterValue(name.metric, -1);
    if (metric != counters.*name.field) {
      testing::Fail(__FILE__, __LINE__,
                    StrFormat("%s reads %lld, ServeCounters %lld",
                              name.metric, static_cast<long long>(metric),
                              static_cast<long long>(counters.*name.field)));
    }
  }
  EXPECT_EQ(snap.GaugeValue("serve.snapshot_version", -1.0),
            static_cast<double>(server.CurrentSnapshot()->version()));
}

// The registry and counters() are two views of one set of counts: drive
// every count reachable without timing (ok, cold, invalid, rejected,
// shed, both publish outcomes) and check each against what the clients
// saw, then the registry against counters().
void TestRegistryAgreesWithServeCounters() {
  io::IdMap users, items;
  for (int64_t raw = 100; raw < 104; ++raw) users.Assign(raw);
  for (int64_t raw = 1000; raw < 1016; ++raw) items.Assign(raw);
  const Model model = RandomModel(4, 16, /*k=*/4, /*seed=*/3);
  auto make = [&](uint64_t version) {
    auto snap = FactorSnapshot::FromModel(model, Ratings{}, version, &users,
                                          &items);
    EXPECT_TRUE(snap.ok());
    return snap.ok() ? *snap : nullptr;
  };

  obs::MetricsRegistry registry;
  auto server = RecServer::Create(ServeConfig{}, make(1), &registry);
  EXPECT_TRUE(server.ok());
  if (!server.ok()) return;
  RecServer& live = **server;
  for (int64_t raw = 100; raw < 104; ++raw) {
    EXPECT_TRUE(live.Query({raw, /*raw=*/true, 3}).ok());
  }
  EXPECT_TRUE(live.Query({999, true, 3}).status().code() ==
              StatusCode::kNotFound);
  EXPECT_TRUE(live.Query({100, true, 0}).status().code() ==
              StatusCode::kInvalidArgument);
  EXPECT_TRUE(live.Publish(make(2)).ok());
  EXPECT_TRUE(live.Publish(FactorSnapshot::PoisonedCopy(*make(3))).code() ==
              StatusCode::kFailedPrecondition);
  auto after = live.Query({101, true, 3});
  EXPECT_TRUE(after.ok());
  if (after.ok()) EXPECT_EQ(after->snapshot_version, 2u);
  live.Drain();
  EXPECT_TRUE(live.Submit({100, true, 3}).get().status().code() ==
              StatusCode::kUnavailable);

  serve::ServeCounters expected;
  expected.requests = 8;
  expected.ok = 5;
  expected.rejected = 1;
  expected.cold_users = 1;
  expected.invalid = 1;
  expected.batches = 6;  // the five ok queries and the k = 0 one
  expected.publishes = 2;  // the initial snapshot and version 2
  expected.publish_rejected = 1;
  const serve::ServeCounters got = live.counters();
  for (const ServeCounterName& name : kServeCounterNames) {
    if (got.*name.field != expected.*name.field) {
      testing::Fail(__FILE__, __LINE__,
                    StrFormat("%s: counters() %lld, expected %lld",
                              name.metric,
                              static_cast<long long>(got.*name.field),
                              static_cast<long long>(expected.*name.field)));
    }
  }
  ExpectRegistryMatchesCounters(registry, live);

  // Shedding: a 1 ns budget sheds whatever waits in the queue.
  ServeConfig tight;
  tight.shards = 1;
  tight.max_batch = 1;
  tight.latency_budget_s = 1e-9;
  obs::MetricsRegistry tight_registry;
  auto shedding = RecServer::Create(tight, make(1), &tight_registry);
  EXPECT_TRUE(shedding.ok());
  if (!shedding.ok()) return;
  constexpr int kRequests = 64;
  std::vector<std::future<StatusOr<serve::TopKResponse>>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back((*shedding)->Submit({i % 4, false, 3}));
  }
  int64_t ok = 0, shed = 0;
  for (auto& future : futures) {
    auto response = future.get();
    if (response.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(response.status().code() ==
                  StatusCode::kDeadlineExceeded);
      ++shed;
    }
  }
  (*shedding)->Drain();
  EXPECT_LT(0, shed);
  const serve::ServeCounters tight_got = (*shedding)->counters();
  EXPECT_EQ(tight_got.requests, kRequests);
  EXPECT_EQ(tight_got.ok, ok);
  EXPECT_EQ(tight_got.shed_deadline, shed);
  EXPECT_EQ(tight_got.deadline_miss, ok);
  EXPECT_EQ(tight_got.batches, ok);
  EXPECT_EQ(tight_got.publishes, 1);
  ExpectRegistryMatchesCounters(tight_registry, **shedding);
}

// Torn-snapshot regression (run under TSan in CI): FromSession while a
// trainer thread mutates the factors must either succeed as a complete
// quiescent copy or fail typed kFailedPrecondition — never copy factor
// rows mid-epoch. Before the barrier gate this was a data race between
// the snapshot memcpy and the SGD updates RunEpoch applies.
void TestFromSessionGatedOnEpochBarrier() {
  SyntheticSpec spec;
  spec.num_rows = 300;
  spec.num_cols = 200;
  spec.train_nnz = 20000;
  spec.test_nnz = 2000;
  spec.params.k = 16;
  auto ds = GenerateSynthetic(spec, /*seed=*/11);
  EXPECT_TRUE(ds.ok());
  if (!ds.ok()) return;
  TrainConfig cfg;
  cfg.algorithm = Algorithm::kHsgdStar;
  cfg.hardware.num_cpu_threads = 4;
  cfg.hardware.num_gpus = 1;
  cfg.max_epochs = 12;
  cfg.use_dataset_target = false;
  cfg.eval_threads = 2;
  auto session = Session::Create(*std::move(ds), cfg);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  Session* s = session->get();

  std::atomic<bool> done{false};
  std::atomic<int64_t> published{0};
  std::atomic<int64_t> refused{0};
  std::atomic<int64_t> wrong{0};
  std::thread snapshotter([&] {
    uint64_t version = 0;
    while (!done.load(std::memory_order_relaxed)) {
      auto snap = FactorSnapshot::FromSession(*s, version + 1);
      if (snap.ok()) {
        ++version;
        published.fetch_add(1);
        if ((*snap)->num_users() != 300 || (*snap)->num_items() != 200) {
          wrong.fetch_add(1);
        }
        // The epoch barrier is a plain std::mutex: retaking it back to
        // back can starve the blocked RunEpoch for seconds (see
        // Session::VisitQuiesced). Pause so training gets the lock.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      } else if (snap.status().code() == StatusCode::kFailedPrecondition) {
        refused.fetch_add(1);
        std::this_thread::yield();
      } else {
        wrong.fetch_add(1);
      }
    }
  });
  while (!s->Done()) {
    EXPECT_TRUE(s->RunEpoch().ok());
    // On a single core the snapshotter may starve until training ends;
    // yielding between epochs gives it real mid-epoch attempts.
    std::this_thread::yield();
  }
  // Keep the (now barrier-free) window open until at least one attempt
  // resolved, so the coverage assertion holds on any scheduler.
  while (published.load() + refused.load() == 0) std::this_thread::yield();
  done.store(true);
  snapshotter.join();

  // Every attempt resolved to exactly one of the two legal outcomes.
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_LT(0, published.load() + refused.load());
  // Training over, the barrier is free: a snapshot must now succeed.
  auto settled = FactorSnapshot::FromSession(*s, 1000);
  EXPECT_TRUE(settled.ok());
  if (settled.ok()) {
    EXPECT_EQ((*settled)->num_users(), 300);
    EXPECT_EQ((*settled)->version(), 1000u);
  }
}

// FromModel over a prebuilt index: snapshots share the index, and an
// index that does not cover exactly the model's user rows is refused.
void TestFromModelSharesAndChecksIndex() {
  Model model = RandomModel(5, 40, /*k=*/4, /*seed=*/3);
  const Ratings rated = {{0, 3, 1.0f}, {4, 39, 1.0f}, {4, 0, 1.0f}};
  auto index = std::make_shared<const RatedIndex>(
      RatedIndex::Build(rated, 5, 40));
  auto a = FactorSnapshot::FromModel(model, index, 1);
  auto b = FactorSnapshot::FromModel(model, index, 2);
  EXPECT_TRUE(a.ok() && b.ok());
  if (!a.ok() || !b.ok()) return;
  EXPECT_TRUE(&(*a)->rated_index() == index.get());
  EXPECT_TRUE(&(*b)->rated_index() == index.get());
  EXPECT_TRUE((*a)->Validate().ok());
  EXPECT_EQ((*a)->NumRated(4), 2);
  // Same answers as a snapshot that indexes the ratings itself.
  auto built = FactorSnapshot::FromModel(model, rated, 3);
  EXPECT_TRUE(built.ok());
  if (built.ok()) {
    for (int32_t u = 0; u < 5; ++u) {
      auto shared = TopK(**a, u, 40);
      auto own = TopK(**built, u, 40);
      EXPECT_TRUE(shared.ok() && own.ok());
      if (shared.ok() && own.ok()) EXPECT_SAME_TOPK(*shared, *own);
    }
  }

  EXPECT_TRUE(FactorSnapshot::FromModel(model, nullptr, 1).status().code() ==
              StatusCode::kInvalidArgument);
  for (int32_t users : {0, 4, 6}) {
    auto other = std::make_shared<const RatedIndex>(
        RatedIndex::Build(rated, users, 40));
    EXPECT_TRUE(FactorSnapshot::FromModel(model, other, 1).status().code() ==
                StatusCode::kInvalidArgument);
  }
}

// With a recycler, FromModel copies into the buffers of the last
// snapshot dropped from it: a snapshot still held keeps its own, reused
// and regrown buffers answer exactly like fresh ones, and a poisoned copy
// of a recycled snapshot is still caught.
void TestFactorRecyclerReusesDroppedBuffers() {
  auto recycler = std::make_shared<FactorRecycler>();
  auto make = [&](const Model& model, uint64_t version,
                  std::shared_ptr<FactorRecycler> from) -> SnapshotPtr {
    auto index = std::make_shared<const RatedIndex>(RatedIndex::Build(
        {{0, 3, 1.0f}, {4, 39, 1.0f}}, model.num_rows(), model.num_cols()));
    auto snapshot = FactorSnapshot::FromModel(model, std::move(index),
                                              version, nullptr, nullptr,
                                              std::move(from));
    EXPECT_TRUE(snapshot.ok());
    return snapshot.ok() ? *snapshot : nullptr;
  };
  auto expect_same = [](const SnapshotPtr& got, const SnapshotPtr& want) {
    EXPECT_TRUE(got != nullptr && want != nullptr);
    if (got == nullptr || want == nullptr) return;
    EXPECT_TRUE(got->Validate().ok());
    for (int32_t u = 0; u < want->num_users(); ++u) {
      auto a = TopK(*got, u, want->num_items());
      auto b = TopK(*want, u, want->num_items());
      EXPECT_TRUE(a.ok() && b.ok());
      if (a.ok() && b.ok()) EXPECT_SAME_TOPK(*a, *b);
    }
  };
  const Model first = RandomModel(5, 40, /*k=*/4, /*seed=*/3);
  const Model second = RandomModel(5, 40, /*k=*/4, /*seed=*/4);
  SnapshotPtr held = make(first, 1, recycler);
  SnapshotPtr next = make(second, 2, recycler);
  if (held == nullptr || next == nullptr) return;
  EXPECT_TRUE(held->q_data() != next->q_data());
  expect_same(held, make(first, 1, nullptr));
  expect_same(next, make(second, 2, nullptr));

  // Dropped, its buffers are the next snapshot's.
  const float* dropped_q = held->q_data();
  held.reset();
  SnapshotPtr reused = make(first, 3, recycler);
  if (reused == nullptr) return;
  EXPECT_TRUE(reused->q_data() == dropped_q);
  expect_same(reused, make(first, 3, nullptr));
  SnapshotPtr poisoned = FactorSnapshot::PoisonedCopy(*reused);
  EXPECT_FALSE(poisoned->Validate().ok());
  EXPECT_TRUE(reused->Validate().ok());

  // A grown model outgrows the kept buffers.
  reused.reset();
  const Model grown = RandomModel(9, 70, /*k=*/4, /*seed=*/5);
  expect_same(make(grown, 4, recycler), make(grown, 4, nullptr));
  expect_same(next, make(second, 2, nullptr));
}

void TestCreateValidatesConfigAndEmptyHolder() {
  ServeConfig bad_shards;
  bad_shards.shards = 0;
  EXPECT_FALSE(RecServer::Create(bad_shards, nullptr).ok());
  ServeConfig bad_batch;
  bad_batch.max_batch = 0;
  EXPECT_FALSE(RecServer::Create(bad_batch, nullptr).ok());

  // No snapshot published yet: queries fail Unavailable until Publish.
  auto server = RecServer::Create(ServeConfig{}, nullptr);
  EXPECT_TRUE(server.ok());
  if (!server.ok()) return;
  auto response = (*server)->Query({0, false, 3});
  EXPECT_TRUE(response.status().code() == StatusCode::kUnavailable);
  // Counted before the future resolves, like every other outcome.
  EXPECT_EQ((*server)->counters().rejected, 1);
  (*server)->Publish(UniformSnapshot(2, 8, 1.0f, 9));
  auto after = (*server)->Query({0, false, 3});
  EXPECT_TRUE(after.ok());
  if (after.ok()) EXPECT_EQ(after->snapshot_version, 9u);
}

// Validate names the first non-finite factor, by row and lane, wherever
// it sits: NaN, +Inf and -Inf in the first and last lanes of P and of Q
// (padding lanes included, since the scan covers the padded buffers),
// on both sides of every power-of-two boundary a blocked scan could use,
// and with a later bad value that must not be the one reported.
void TestValidateNamesFirstNonFinite() {
  const int32_t users = 300, items = 200;
  const int k = 20;  // stride 32: 9,600 floats of P, 6,400 of Q
  const float bad_values[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
  auto validate = [&](const std::vector<int64_t>& p_bad,
                      const std::vector<int64_t>& q_bad, float value) {
    Model model = RandomModel(users, items, k, /*seed=*/13);
    for (int64_t i : p_bad) model.p_data()[i] = value;
    for (int64_t i : q_bad) model.q_data()[i] = value;
    auto snap = FactorSnapshot::FromModel(model, Ratings{}, /*version=*/4);
    EXPECT_TRUE(snap.ok());
    return snap.ok() ? (*snap)->Validate() : snap.status();
  };
  auto names = [](const Status& status, const char* matrix, int64_t index,
                  int stride) {
    return status.code() == StatusCode::kFailedPrecondition &&
           status.message() ==
               StrFormat("snapshot v4 has a non-finite %s factor (row %lld "
                         "lane %lld)",
                         matrix, static_cast<long long>(index / stride),
                         static_cast<long long>(index % stride));
  };
  EXPECT_TRUE(validate({}, {}, 0.0f).ok());
  const int stride = PaddedStride(k);
  const int64_t p_n = static_cast<int64_t>(users) * stride;
  const int64_t q_n = static_cast<int64_t>(items) * stride;
  for (const int64_t n : {p_n, q_n}) {
    std::vector<int64_t> positions = {0, 1, n - 1, n - stride + k - 1};
    for (int64_t edge = 64; edge < n; edge *= 2) {
      positions.push_back(edge - 1);
      positions.push_back(edge);
    }
    const bool in_p = n == p_n;
    for (const float value : bad_values) {
      for (const int64_t at : positions) {
        const std::vector<int64_t> one = {at};
        const Status status =
            in_p ? validate(one, {}, value) : validate({}, one, value);
        EXPECT_TRUE(names(status, in_p ? "user" : "item", at, stride));
        // A second bad value, later in the same block or in a later one,
        // changes nothing.
        for (const int64_t later : {at + 1, at + 1500}) {
          if (later >= n) continue;
          const std::vector<int64_t> two = {at, later};
          const Status both =
              in_p ? validate(two, {}, value) : validate({}, two, value);
          EXPECT_TRUE(names(both, in_p ? "user" : "item", at, stride));
        }
      }
    }
  }
  // A bad user factor is reported before a bad item factor.
  EXPECT_TRUE(names(validate({p_n - 1}, {0}, bad_values[0]), "user",
                    p_n - 1, stride));
}

// A corrupt publish must be rejected with a typed error while the
// last-known-good snapshot keeps serving — the whole rollback policy is
// that a bad candidate never replaces a good one.
void TestPublishValidationRejectsPoison() {
  SnapshotPtr good = UniformSnapshot(4, 32, 1.0f, 1);
  EXPECT_TRUE(good->Validate().ok());
  SnapshotPtr poisoned = FactorSnapshot::PoisonedCopy(*good);
  EXPECT_TRUE(poisoned != nullptr);
  EXPECT_FALSE(poisoned->Validate().ok());
  EXPECT_TRUE(poisoned->Validate().code() ==
              StatusCode::kFailedPrecondition);
  // The copy shares its source's exclusion index instead of copying it.
  EXPECT_TRUE(&poisoned->rated_index() == &good->rated_index());

  // Holder level: the rejection installs nothing.
  SnapshotHolder holder;
  EXPECT_TRUE(holder.PublishValidated(good).ok());
  EXPECT_TRUE(holder.PublishValidated(nullptr).code() ==
              StatusCode::kInvalidArgument);
  EXPECT_TRUE(holder.PublishValidated(poisoned).code() ==
              StatusCode::kFailedPrecondition);
  SnapshotPtr served = holder.Acquire();
  EXPECT_TRUE(served == good);

  // Server level: queries keep answering on the good snapshot, and the
  // rejection is visible in the counters.
  auto server = RecServer::Create(ServeConfig{}, good);
  EXPECT_TRUE(server.ok());
  if (!server.ok()) return;
  EXPECT_TRUE((*server)->Publish(FactorSnapshot::PoisonedCopy(*good))
                  .code() == StatusCode::kFailedPrecondition);
  auto response = (*server)->Query({0, false, 4});
  EXPECT_TRUE(response.ok());
  if (response.ok()) {
    EXPECT_EQ(response->snapshot_version, 1u);
    for (const ScoredItem& item : response->items) {
      EXPECT_EQ(item.score, 1.0f);
    }
  }
  EXPECT_EQ((*server)->counters().publish_rejected, 1);
  // A corrupt INITIAL snapshot fails construction outright — there is no
  // last-known-good to fall back to yet.
  EXPECT_FALSE(
      RecServer::Create(ServeConfig{}, FactorSnapshot::PoisonedCopy(*good))
          .ok());
}

// Publisher churn: a reader that holds a SnapshotPtr across many
// publishes must keep scoring its original, fully-intact snapshot, and
// the holder must serve the latest publish once everything settles.
void TestHeldSnapshotSurvivesPublisherChurn() {
  SnapshotHolder holder(UniformSnapshot(4, 64, 1.0f, 1));

  // Hold version 1 across publishes 2..5.
  SnapshotPtr held = holder.Acquire();
  EXPECT_TRUE(held != nullptr);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::vector<float> scratch;
      while (!stop.load(std::memory_order_relaxed)) {
        SnapshotPtr snap = holder.Acquire();
        if (snap == nullptr ||
            snap->UserRow(0)[0] != 1.0f) {  // p rows are (1, 0) always
          bad.fetch_add(1);
        }
      }
    });
  }
  for (uint64_t version = 2; version <= 5; ++version) {
    EXPECT_TRUE(holder
                    .PublishValidated(UniformSnapshot(
                        4, 64, static_cast<float>(version), version))
                    .ok());
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(bad.load(), 0);

  // The held snapshot survived four publishes bit-intact.
  EXPECT_EQ(held->version(), 1u);
  std::vector<float> scratch;
  TopKQuery query{0, 8};
  auto results = serve::BatchTopK(*held, &query, 1, nullptr, &scratch);
  EXPECT_TRUE(results[0].ok());
  if (results[0].ok()) {
    for (const ScoredItem& item : *results[0]) {
      EXPECT_EQ(item.score, 1.0f);
    }
  }

  held.reset();
  SnapshotPtr current = holder.Acquire();
  EXPECT_TRUE(current != nullptr);
  if (current != nullptr) EXPECT_EQ(current->version(), 5u);
}

// Shutdown racing a submitter (run under TSan in CI): every future must
// resolve — served before the drain, or typed Unavailable after — and
// no promise may be abandoned or leak a crash. Before Drain existed,
// Shutdown could destroy queued promises with waiters still blocked.
void TestShutdownRacesInFlightSubmits() {
  for (int iteration = 0; iteration < 5; ++iteration) {
    SnapshotPtr snap = UniformSnapshot(8, 128, 1.0f, 1);
    ServeConfig config;
    config.shards = 2;
    config.max_batch = 4;
    auto server = RecServer::Create(config, snap);
    EXPECT_TRUE(server.ok());
    if (!server.ok()) return;

    std::atomic<bool> stop{false};
    std::atomic<int64_t> issued{0}, resolved{0}, unexpected{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&, t] {
        std::vector<std::future<StatusOr<serve::TopKResponse>>> futures;
        int i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          futures.push_back((*server)->Submit({(t + i++) % 8, false, 5}));
          issued.fetch_add(1);
          if (futures.size() >= 16) {
            for (auto& future : futures) {
              auto response = future.get();
              if (!response.ok() && response.status().code() !=
                                        StatusCode::kUnavailable) {
                unexpected.fetch_add(1);
              }
              resolved.fetch_add(1);
            }
            futures.clear();
          }
        }
        for (auto& future : futures) {
          auto response = future.get();
          if (!response.ok() &&
              response.status().code() != StatusCode::kUnavailable) {
            unexpected.fetch_add(1);
          }
          resolved.fetch_add(1);
        }
      });
    }

    // Let traffic build, then shut down mid-flight. Waiting on a count,
    // not a sleep, keeps a loaded host from shutting down before any
    // submitter has started.
    while (issued.load() < 48) std::this_thread::yield();
    (*server)->Shutdown();
    stop.store(true);
    for (auto& thread : submitters) thread.join();

    EXPECT_LT(0, resolved.load());
    EXPECT_EQ(unexpected.load(), 0);
    // Post-shutdown submits still resolve, typed.
    auto late = (*server)->Submit({0, false, 3}).get();
    EXPECT_TRUE(late.status().code() == StatusCode::kUnavailable);
    // Idempotent.
    (*server)->Shutdown();
  }
}

// Breaker lifecycle: a stalled shard under deadline pressure must OPEN
// (fail fast), then HALF-OPEN after the cooldown, then CLOSE once its
// probes hit the deadline again.
void TestBreakerOpensAndRecovers() {
  SnapshotPtr snap = UniformSnapshot(4, 64, 1.0f, 1);
  ServeConfig config;
  config.shards = 1;
  config.max_batch = 8;
  config.latency_budget_s = 0.002;
  config.breaker_enabled = true;
  auto server = RecServer::Create(config, snap);
  EXPECT_TRUE(server.ok());
  if (!server.ok()) return;

  // Phase 1: stall every batch far past the budget; queued requests all
  // miss, the window fills, the breaker opens and starts failing fast.
  std::atomic<bool> degraded{true};
  (*server)->SetBatchStallHook([&degraded](int) {
    return degraded.load(std::memory_order_relaxed) ? 0.01 : 0.0;
  });
  int64_t breaker_rejected = 0;
  for (int wave = 0; wave < 20 && breaker_rejected == 0; ++wave) {
    std::vector<std::future<StatusOr<serve::TopKResponse>>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back((*server)->Submit({i % 4, false, 5}));
    }
    for (auto& future : futures) future.get();
    breaker_rejected = (*server)->counters().breaker_rejected;
  }
  auto mid = (*server)->counters();
  EXPECT_LT(0, mid.breaker_opens);
  EXPECT_LT(0, breaker_rejected);

  // Phase 2: heal the shard, wait out the cooldown, and trickle probes.
  // The first submit after the cooldown half-opens the breaker; once its
  // probes (four) complete within budget it closes again.
  degraded.store(false);
  bool closed = false;
  for (int attempt = 0; attempt < 50 && !closed; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto response = (*server)->Query({0, false, 5});
    (void)response;
    closed = (*server)->counters().breaker_closes > 0;
  }
  auto counters = (*server)->counters();
  EXPECT_LT(0, counters.breaker_half_opens);
  EXPECT_LT(0, counters.breaker_closes);
  // Fully recovered: a healthy query is served, and the closed breaker
  // admits it. A worker that wakes later than the 2 ms budget (a loaded
  // host, TSan) sheds it with DEADLINE_EXCEEDED instead; that is the
  // deadline doing its job, so retry. Fewer tries than the breaker's
  // 16-completion window cannot re-open it.
  auto after = (*server)->Query({1, false, 5});
  for (int attempt = 1; attempt < 8 && !after.ok() &&
                        after.status().code() ==
                            StatusCode::kDeadlineExceeded;
       ++attempt) {
    after = (*server)->Query({1, false, 5});
  }
  EXPECT_TRUE(after.ok());
  EXPECT_EQ((*server)->counters().breaker_rejected,
            counters.breaker_rejected);
  (*server)->Shutdown();
}

}  // namespace

void RunAllTests() {
  TestSnapshotSwapUnderConcurrentReaders();
  TestBatchTopKMatchesBruteForceBitwise();
  TestServerAnswersMatchBruteForce();
  TestMidLoadSwapNeverTorn();
  TestDeadlineSheddingCountsExactly();
  TestColdUserIsTypedNotFatal();
  TestRegistryAgreesWithServeCounters();
  TestFromSessionGatedOnEpochBarrier();
  TestFromModelSharesAndChecksIndex();
  TestFactorRecyclerReusesDroppedBuffers();
  TestCreateValidatesConfigAndEmptyHolder();
  TestPublishValidationRejectsPoison();
  TestValidateNamesFirstNonFinite();
  TestHeldSnapshotSurvivesPublisherChurn();
  TestShutdownRacesInFlightSubmits();
  TestBreakerOpensAndRecovers();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
