// Stream subsystem tests: the OnlineTrainer must take a cold raw id from
// ingestion to a servable factor row — with queries in between answered
// by a typed NotFound, never a stale dense-id aliasing — and every
// snapshot it publishes on its merged rated-item index must equal one
// indexed from scratch.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "brute_force_topk.h"
#include "core/dataset.h"
#include "core/recommender.h"
#include "core/session.h"
#include "io/loader.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stream/stream.h"
#include "stream/wal.h"
#include "test_main.h"

namespace hsgd {
namespace {

using io::RawRating;
using stream::DenseIdentityMap;
using stream::OnlineTrainer;
using stream::SyntheticStream;
using stream::SyntheticStreamSpec;

void ExpectSameRecords(const std::vector<RawRating>& a,
                       const std::vector<RawRating>& b) {
  EXPECT_EQ(a.size(), b.size());
  if (a.size() != b.size()) return;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].item, b[i].item);
    EXPECT_EQ(a[i].rating, b[i].rating);
  }
}

void TestSyntheticStreamDeterministic() {
  SyntheticStreamSpec spec;
  spec.warm_users = 50;
  spec.warm_items = 40;
  spec.cold_user_rate = 0.2;
  spec.cold_item_rate = 0.1;
  spec.raw_user_base = 1000000;
  spec.raw_item_base = 2000000;
  spec.seed = 9;
  SyntheticStream a(spec);
  SyntheticStream b(spec);
  const auto batch_a = a.NextBatch(500);
  const auto batch_b = b.NextBatch(500);
  EXPECT_EQ(batch_a.size(), 500u);
  ExpectSameRecords(batch_a, batch_b);
  EXPECT_EQ(a.cold_users_emitted(), b.cold_users_emitted());
  // At a 20% cold rate, 500 arrivals must introduce someone new.
  EXPECT_LT(0, a.cold_users_emitted());
  EXPECT_LT(0, a.cold_items_emitted());
  for (const RawRating& rec : batch_a) {
    EXPECT_TRUE(rec.user >= spec.raw_user_base);
    EXPECT_TRUE(rec.item >= spec.raw_item_base);
    EXPECT_TRUE(rec.rating >= stream::kStreamMinRating &&
                rec.rating <= stream::kStreamMaxRating);
  }
}

StatusOr<std::unique_ptr<Session>> WarmSession(int32_t rows, int32_t cols,
                                               int max_epochs) {
  SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_cols = cols;
  spec.train_nnz = rows * cols / 10;
  spec.test_nnz = rows * cols / 100;
  spec.params.k = 8;
  auto ds = GenerateSynthetic(spec, /*seed=*/21);
  HSGD_RETURN_IF_ERROR(ds.status());
  TrainConfig cfg;
  cfg.algorithm = Algorithm::kHsgdStar;
  cfg.hardware.num_cpu_threads = 4;
  cfg.hardware.num_gpus = 1;
  cfg.max_epochs = max_epochs;
  cfg.use_dataset_target = false;
  cfg.eval_threads = 2;
  return Session::Create(*std::move(ds), cfg);
}

// The cold-start satellite, end to end: a raw id streamed in is NotFound
// until the publish whose maps cover it, then servable — and the raw/dense
// offset guarantees an identity fallback would be caught as a wrong answer.
void TestOnlineTrainerColdStartServing() {
  const int32_t kRows = 120;
  const int32_t kCols = 90;
  const int64_t kUserBase = 5000000;
  const int64_t kItemBase = 7000000;
  auto session = WarmSession(kRows, kCols, /*max_epochs=*/40);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  EXPECT_TRUE((*session)->RunEpoch().ok());
  EXPECT_TRUE((*session)->RunEpoch().ok());

  // The warm vocabulary is offset: raw id = base + dense index.
  io::IdMap users, items;
  for (int32_t i = 0; i < kRows; ++i) users.Assign(kUserBase + i);
  for (int32_t i = 0; i < kCols; ++i) items.Assign(kItemBase + i);

  auto server = serve::RecServer::Create(serve::ServeConfig{}, nullptr);
  EXPECT_TRUE(server.ok());
  if (!server.ok()) return;
  serve::RecServer* srv = server->get();

  obs::MetricsRegistry metrics;
  auto trainer = OnlineTrainer::Create(
      *std::move(session), std::move(users), std::move(items),
      [srv](serve::SnapshotPtr snap) { return srv->Publish(std::move(snap)); },
      &metrics);
  EXPECT_TRUE(trainer.ok());
  if (!trainer.ok()) return;
  OnlineTrainer* ot = trainer->get();

  EXPECT_TRUE(ot->PublishSnapshot().ok());
  EXPECT_EQ(ot->version(), 1u);

  // Warm raw id serves; its dense alias must NOT (identity fallback
  // would accept it — the typed NotFound proves the maps are live).
  EXPECT_TRUE(srv->Query({kUserBase + 3, /*raw=*/true, 5}).ok());
  EXPECT_TRUE(srv->Query({3, /*raw=*/true, 5}).status().code() ==
              StatusCode::kNotFound);

  // Stream in a cold user and a cold item.
  const int64_t cold_user = kUserBase + kRows + 7;
  const int64_t cold_item = kItemBase + kCols + 2;
  std::vector<RawRating> batch = {
      {cold_user, kItemBase + 1, 4.5f},
      {cold_user, cold_item, 3.0f},
      {kUserBase + 2, cold_item, 2.5f},
  };
  auto ingested = ot->Ingest(batch);
  EXPECT_TRUE(ingested.ok());
  if (ingested.ok()) {
    EXPECT_EQ(ingested->accepted, 3);
    EXPECT_EQ(ingested->cold_users, 1);
    EXPECT_EQ(ingested->cold_items, 1);
  }
  EXPECT_EQ(ot->pending_nnz(), 3);

  // Before the next publish the server still holds the old snapshot:
  // the streamed id is typed NotFound, not a stale answer.
  EXPECT_TRUE(srv->Query({cold_user, /*raw=*/true, 5}).status().code() ==
              StatusCode::kNotFound);

  EXPECT_TRUE(ot->TrainDirty().ok());
  EXPECT_EQ(ot->pending_nnz(), 0);
  EXPECT_TRUE(ot->PublishSnapshot().ok());
  EXPECT_EQ(ot->version(), 2u);

  // The publish whose maps cover the cold user makes it servable, and
  // its results translate back to raw item ids.
  auto answer = srv->Query({cold_user, /*raw=*/true, 5});
  EXPECT_TRUE(answer.ok());
  if (answer.ok()) {
    EXPECT_EQ(answer->snapshot_version, 2u);
    EXPECT_EQ(answer->items.size(), 5u);
    EXPECT_EQ(answer->raw_items.size(), 5u);
    for (int64_t raw : answer->raw_items) {
      EXPECT_TRUE(raw >= kItemBase);
    }
  }

  // Ingest rejects negative raw ids without mutating anything.
  auto bad = ot->Ingest({{-1, kItemBase, 3.0f}});
  EXPECT_TRUE(bad.status().code() == StatusCode::kInvalidArgument);
  EXPECT_EQ(ot->pending_nnz(), 0);

  // TrainDirty with nothing pending is the session's typed refusal.
  EXPECT_TRUE(ot->TrainDirty().status().code() ==
              StatusCode::kFailedPrecondition);

  // The stream.* instruments saw the traffic.
  EXPECT_EQ(metrics.counter("stream.ingested")->Value(), 3);
  EXPECT_EQ(metrics.counter("stream.cold_users")->Value(), 1);
  EXPECT_EQ(metrics.counter("stream.cold_items")->Value(), 1);
  EXPECT_EQ(metrics.counter("stream.publishes")->Value(), 2);
  EXPECT_EQ(metrics.counter("stream.epochs")->Value(), 1);

  srv->Shutdown();
}

void TestOnlineTrainerCreateValidation() {
  auto session = WarmSession(40, 30, 5);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  // Maps that do not describe the dataset are rejected.
  auto wrong = OnlineTrainer::Create(*std::move(session),
                                     DenseIdentityMap(39),
                                     DenseIdentityMap(30), nullptr);
  EXPECT_TRUE(wrong.status().code() == StatusCode::kInvalidArgument);
  EXPECT_TRUE(OnlineTrainer::Create(nullptr, DenseIdentityMap(0),
                                    DenseIdentityMap(0), nullptr)
                  .status()
                  .code() == StatusCode::kInvalidArgument);

  auto session2 = WarmSession(40, 30, 5);
  EXPECT_TRUE(session2.ok());
  if (!session2.ok()) return;
  auto ok = OnlineTrainer::Create(*std::move(session2),
                                  DenseIdentityMap(40),
                                  DenseIdentityMap(30), nullptr);
  EXPECT_TRUE(ok.ok());
  if (ok.ok()) {
    // A null publisher is legal: the snapshot is still returned.
    EXPECT_TRUE((*ok)->session().Done() == false);
    auto snap = (*ok)->PublishSnapshot();
    EXPECT_TRUE(snap.ok());
    if (snap.ok()) EXPECT_EQ((*snap)->version(), 1u);
  }
}

/// Deterministic warm base for the WAL tests; regenerating with the same
/// seed reproduces the exact Dataset, which is what Recover() requires.
Dataset WarmDataset(int32_t rows, int32_t cols) {
  SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_cols = cols;
  spec.train_nnz = rows * cols / 10;
  spec.test_nnz = rows * cols / 100;
  spec.params.k = 8;
  auto ds = GenerateSynthetic(spec, /*seed=*/33);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TrainConfig StreamConfig() {
  TrainConfig cfg;
  cfg.algorithm = Algorithm::kHsgdStar;
  cfg.hardware.num_cpu_threads = 4;
  cfg.hardware.num_gpus = 1;
  cfg.max_epochs = 40;
  cfg.use_dataset_target = false;
  cfg.eval_threads = 2;
  return cfg;
}

/// Deterministic mixed warm/cold batch for publish round `round` (raw
/// ids a little past the warm range introduce cold entities).
std::vector<RawRating> StreamBatch(int round, int32_t rows, int32_t cols) {
  std::vector<RawRating> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back({(round * 7 + 5 * i) % (rows + 3),
                     (round * 11 + 3 * i) % (cols + 2),
                     1.0f + 0.5f * static_cast<float>((round + i) % 6)});
  }
  return batch;
}

/// Expects `published` (a snapshot `trainer` just built) to index
/// exactly what a from-scratch RatedIndex::Build over the training list
/// indexes, and to answer a full-catalog TopK for every user bit for bit
/// like a FromSession snapshot of the same moment.
void ExpectSameAsFromScratch(const OnlineTrainer& trainer,
                             const serve::FactorSnapshot& published) {
  const Dataset& ds = trainer.session().dataset();
  const RatedIndex built =
      RatedIndex::Build(ds.train, ds.num_rows, ds.num_cols);
  EXPECT_TRUE(published.rated_index().offsets == built.offsets);
  EXPECT_TRUE(published.rated_index().items == built.items);

  auto reference = serve::FactorSnapshot::FromSession(
      trainer.session(), published.version(), &trainer.users(),
      &trainer.items());
  EXPECT_TRUE(reference.ok());
  if (!reference.ok()) return;
  std::vector<serve::TopKQuery> queries;
  for (int32_t u = 0; u < ds.num_rows; ++u) {
    queries.push_back({u, ds.num_cols});
  }
  auto got = serve::BatchTopK(published, queries.data(), queries.size());
  auto want = serve::BatchTopK(**reference, queries.data(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(got[i].ok() && want[i].ok());
    if (got[i].ok() && want[i].ok()) EXPECT_SAME_TOPK(*got[i], *want[i]);
  }
}

// Create indexes the training list, TrainDirty merges each round's
// ratings into the previous index on a pool thread beside the epoch, and
// the publish path merges what arrived after it, both outside the epoch
// barrier. Across many rounds — ingest before the first publish, empty
// rounds, rounds that ingest again between TrainDirty and the publish,
// duplicate ratings, cold users and items, a publisher that refuses
// every fifth snapshot, and a last stretch of rounds whose
// TrainDirty is refused because the epoch budget is spent while their
// ratings are pending — each candidate must equal a from-scratch
// snapshot, at one and at seven eval threads. A publish with nothing
// ingested since the previous attempt shares that attempt's index, and
// any other gets a new one.
void ExpectPublishedIndexMatchesBuild(int eval_threads) {
  const int32_t kRows = 80;
  const int32_t kCols = 60;
  const int kRounds = 60;
  // The last kRefusedRounds rounds find the epoch budget spent.
  const int kRefusedRounds = 6;
  auto empty_round = [](int round) { return round % 7 == 3; };
  TrainConfig config = StreamConfig();
  config.eval_threads = eval_threads;
  // The warm epoch, round 0's and one per ingesting round before the
  // refused ones.
  config.max_epochs = 2;
  for (int round = 1; round <= kRounds - kRefusedRounds; ++round) {
    if (!empty_round(round)) ++config.max_epochs;
  }
  auto session = Session::Create(WarmDataset(kRows, kCols), config);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  EXPECT_TRUE((*session)->RunEpoch().ok());

  // Only the last two candidates stay alive, so the trainer gets older
  // indexes and factor buffers back and most rounds run on reused
  // storage.
  serve::SnapshotPtr previous, last;
  int64_t attempts = 0;
  auto trainer = OnlineTrainer::Create(
      *std::move(session), DenseIdentityMap(kRows), DenseIdentityMap(kCols),
      [&](serve::SnapshotPtr snap) {
        previous = std::exchange(last, std::move(snap));
        return ++attempts % 5 == 0
                   ? Status::FailedPrecondition("refused by the test")
                   : Status::Ok();
      });
  EXPECT_TRUE(trainer.ok());
  if (!trainer.ok()) return;
  OnlineTrainer* ot = trainer->get();

  // Ratings ingested and trained before the first publish reach its
  // index through TrainDirty's merge into the one Create built.
  EXPECT_TRUE(ot->Ingest(StreamBatch(0, kRows, kCols)).ok());
  EXPECT_TRUE(ot->TrainDirty().ok());

  // Raw ids run past the warm range, further every round, so cold users
  // and items keep arriving; each batch repeats its first rating, and
  // every batch rates the pair (1, 2) again.
  auto batch_of = [&](int round, int salt) {
    std::vector<RawRating> batch;
    for (int i = 0; i < 5 + round % 4; ++i) {
      batch.push_back(
          {(round * 13 + 7 * i + salt) % (kRows + round / 2 + 1),
           (round * 5 + 11 * i + salt) % (kCols + round / 3 + 1),
           1.0f + 0.5f * static_cast<float>(i % 6)});
    }
    batch.push_back(batch.front());
    batch.push_back({1, 2, 4.0f});
    return batch;
  };
  for (int round = 1; round <= kRounds; ++round) {
    const bool empty = empty_round(round);
    if (!empty) {
      EXPECT_TRUE(ot->Ingest(batch_of(round, 0)).ok());
      auto trained = ot->TrainDirty();
      if (round > kRounds - kRefusedRounds) {
        EXPECT_TRUE(trained.status().code() ==
                    StatusCode::kFailedPrecondition);
        EXPECT_LT(0, ot->pending_nnz());
      } else {
        EXPECT_TRUE(trained.ok());
      }
      // Ratings that arrive after TrainDirty are the publish's to merge.
      if (round % 4 == 1) EXPECT_TRUE(ot->Ingest(batch_of(round, 3)).ok());
    }
    const int64_t before = attempts;
    const bool refused = (attempts + 1) % 5 == 0;
    auto published = ot->PublishSnapshot();
    EXPECT_EQ(published.ok(), !refused);
    EXPECT_EQ(attempts, before + 1);
    if (attempts != before + 1) return;
    ExpectSameAsFromScratch(*ot, *last);
    if (previous != nullptr) {
      EXPECT_EQ(&last->rated_index() == &previous->rated_index(), empty);
    }
  }
  EXPECT_EQ(ot->publish_rejected(), kRounds / 5);
  EXPECT_EQ(ot->publishes(), kRounds - kRounds / 5);
  EXPECT_LT(kRows, ot->users().size());
  EXPECT_LT(kCols, ot->items().size());

  // Two publishes with no ingest between them share one index.
  auto first = ot->PublishSnapshot();
  auto second = ot->PublishSnapshot();
  EXPECT_TRUE(first.ok() && second.ok());
  if (first.ok() && second.ok()) {
    EXPECT_TRUE(&(*first)->rated_index() == &(*second)->rated_index());
  }
}

void TestPublishedIndexMatchesBuild() {
  for (int eval_threads : {1, 7}) {
    ExpectPublishedIndexMatchesBuild(eval_threads);
  }
}

// WAL-armed ingest is bit-transparent: the same warm base and streamed
// rounds produce identical factors with and without the log, the log
// holds exactly the acknowledged batches, and re-Creating over a
// populated log is refused (that is Recover's job).
void TestWalIngestParityAndCreateRefusal() {
  const int32_t kRows = 80;
  const int32_t kCols = 60;
  const int kRounds = 4;
  const std::string dir = "stream_test_wal_parity";
  std::filesystem::remove_all(dir);

  OnlineTrainer::WalIngestOptions wal;
  wal.wal.dir = dir;

  auto run_leg = [&](const OnlineTrainer::WalIngestOptions* log)
      -> std::unique_ptr<OnlineTrainer> {
    auto session =
        Session::Create(WarmDataset(kRows, kCols), StreamConfig());
    EXPECT_TRUE(session.ok());
    if (!session.ok()) return nullptr;
    EXPECT_TRUE((*session)->RunEpoch().ok());
    auto trainer = OnlineTrainer::Create(
        *std::move(session), DenseIdentityMap(kRows),
        DenseIdentityMap(kCols), nullptr, nullptr, log);
    EXPECT_TRUE(trainer.ok());
    if (!trainer.ok()) return nullptr;
    for (int round = 1; round <= kRounds; ++round) {
      EXPECT_TRUE(
          (*trainer)->Ingest(StreamBatch(round, kRows, kCols)).ok());
      EXPECT_TRUE((*trainer)->TrainDirty().ok());
    }
    return *std::move(trainer);
  };

  std::unique_ptr<OnlineTrainer> plain = run_leg(nullptr);
  std::unique_ptr<OnlineTrainer> logged = run_leg(&wal);
  EXPECT_TRUE(plain != nullptr && logged != nullptr);
  if (plain == nullptr || logged == nullptr) return;

  EXPECT_TRUE(plain->session().model().DenseP() ==
              logged->session().model().DenseP());
  EXPECT_TRUE(plain->session().model().DenseQ() ==
              logged->session().model().DenseQ());

  // A NaN rating is refused before the append: nothing is logged, and
  // nothing retried or applied.
  const int64_t pending = logged->pending_nnz();
  auto nan =
      logged->Ingest({{1, 1, std::numeric_limits<float>::quiet_NaN()}});
  EXPECT_TRUE(nan.status().code() == StatusCode::kInvalidArgument);
  EXPECT_EQ(logged->wal()->last_seq(), static_cast<uint64_t>(kRounds));
  EXPECT_EQ(logged->pending_nnz(), pending);

  // The log holds exactly the acknowledged rounds, in seq order.
  EXPECT_EQ(logged->wal_applied_seq(), static_cast<uint64_t>(kRounds));
  EXPECT_EQ(logged->wal_retries(), 0);
  auto replay = stream::Wal::Replay(dir);
  EXPECT_TRUE(replay.ok());
  if (replay.ok()) {
    EXPECT_EQ(replay->records.size(), static_cast<size_t>(kRounds));
    EXPECT_EQ(replay->truncated_bytes, 0);
    for (int round = 1; round <= kRounds; ++round) {
      EXPECT_EQ(replay->records[round - 1].seq,
                static_cast<uint64_t>(round));
      ExpectSameRecords(replay->records[round - 1].batch,
                        StreamBatch(round, kRows, kCols));
    }
  }

  // A fresh Create over the populated log: silently appending after
  // unreplayed records would desync checkpoint marks from the session.
  logged.reset();
  auto session = Session::Create(WarmDataset(kRows, kCols), StreamConfig());
  EXPECT_TRUE(session.ok());
  if (session.ok()) {
    auto again = OnlineTrainer::Create(
        *std::move(session), DenseIdentityMap(kRows),
        DenseIdentityMap(kCols), nullptr, nullptr, &wal);
    EXPECT_TRUE(again.status().code() == StatusCode::kFailedPrecondition);
    EXPECT_TRUE(again.status().message().find("Recover") !=
                std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

// The crash-recovery contract end to end: a mid-stream checkpoint plus
// the WAL tail reconstructs the crashed trainer's factors bit for bit,
// and Checkpoint refuses to run while ingested ratings are untrained.
void TestWalCheckpointRecoverBitIdentity() {
  const int32_t kRows = 80;
  const int32_t kCols = 60;
  const std::string dir = "stream_test_wal_recover";
  const std::string ckpt = "stream_test_recover.ckpt";
  std::filesystem::remove_all(dir);
  std::remove(ckpt.c_str());

  OnlineTrainer::WalIngestOptions wal;
  wal.wal.dir = dir;

  auto session = Session::Create(WarmDataset(kRows, kCols), StreamConfig());
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return;
  EXPECT_TRUE((*session)->RunEpoch().ok());
  auto created = OnlineTrainer::Create(
      *std::move(session), DenseIdentityMap(kRows), DenseIdentityMap(kCols),
      nullptr, nullptr, &wal);
  EXPECT_TRUE(created.ok());
  if (!created.ok()) return;
  OnlineTrainer* ot = created->get();

  // Rounds 1-3 are covered by the checkpoint...
  for (int round = 1; round <= 3; ++round) {
    EXPECT_TRUE(ot->Ingest(StreamBatch(round, kRows, kCols)).ok());
    if (round == 3) {
      // ...which must wait until the dirty ratings are trained:
      // recovery relies on ingest-quiescent save points.
      EXPECT_TRUE(ot->Checkpoint(ckpt).code() ==
                  StatusCode::kFailedPrecondition);
    }
    EXPECT_TRUE(ot->TrainDirty().ok());
  }
  EXPECT_TRUE(ot->Checkpoint(ckpt).ok());

  // ...rounds 4-5 exist only in the log when the "crash" hits.
  for (int round = 4; round <= 5; ++round) {
    EXPECT_TRUE(ot->Ingest(StreamBatch(round, kRows, kCols)).ok());
    EXPECT_TRUE(ot->TrainDirty().ok());
  }
  const std::vector<float> p = ot->session().model().DenseP();
  const std::vector<float> q = ot->session().model().DenseQ();
  created->reset();  // the crash: only the checkpoint and log survive

  auto recovered = OnlineTrainer::Recover(
      WarmDataset(kRows, kCols), DenseIdentityMap(kRows),
      DenseIdentityMap(kCols), ckpt, wal, nullptr);
  EXPECT_TRUE(recovered.ok());
  if (!recovered.ok()) return;
  EXPECT_EQ(recovered->checkpoint_seq, 3u);
  EXPECT_EQ(recovered->replayed_batches, 3);
  EXPECT_EQ(recovered->truncated_bytes, 0);
  EXPECT_EQ(recovered->unapplied.size(), 2u);
  OnlineTrainer* back = recovered->trainer.get();
  EXPECT_TRUE(back != nullptr);
  if (back == nullptr) return;

  // Re-drive the tail with the original ingest/train cadence.
  for (const stream::WalRecord& record : recovered->unapplied) {
    EXPECT_TRUE(back->ReplayIngest(record).ok());
    EXPECT_TRUE(back->TrainDirty().ok());
  }
  EXPECT_TRUE(back->session().model().DenseP() == p);
  EXPECT_TRUE(back->session().model().DenseQ() == q);
  EXPECT_EQ(back->wal_applied_seq(), 5u);

  // Recover indexed the restored training list and each TrainDirty of
  // the re-driven tail merged its batch in, so the recovered trainer's
  // first publish covers the whole grown list...
  auto rebuilt = back->PublishSnapshot();
  EXPECT_TRUE(rebuilt.ok());
  if (rebuilt.ok()) ExpectSameAsFromScratch(*back, **rebuilt);

  // The revived log keeps appending where the crash left off.
  EXPECT_TRUE(back->Ingest(StreamBatch(6, kRows, kCols)).ok());
  EXPECT_EQ(back->wal_applied_seq(), 6u);

  // ...and the next one merges what arrived since.
  EXPECT_TRUE(back->TrainDirty().ok());
  auto merged = back->PublishSnapshot();
  EXPECT_TRUE(merged.ok());
  if (merged.ok()) ExpectSameAsFromScratch(*back, **merged);

  std::filesystem::remove_all(dir);
  std::remove(ckpt.c_str());
}

}  // namespace

void RunAllTests() {
  TestSyntheticStreamDeterministic();
  TestOnlineTrainerColdStartServing();
  TestOnlineTrainerCreateValidation();
  TestPublishedIndexMatchesBuild();
  TestWalIngestParityAndCreateRefusal();
  TestWalCheckpointRecoverBitIdentity();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
