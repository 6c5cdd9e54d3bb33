// Tests for numalab::storage — eviction determinism, WAL replay
// idempotence, checkpoint truncation and the serving integration
// (DESIGN.md section 15).
//
// Sim-driven tests use free coroutine functions (never capturing-lambda
// coroutines: the lambda object dies before the coroutine resumes).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/serve/serve.h"
#include "src/storage/storage.h"
#include "src/trace/export.h"
#include "src/workloads/sim_context.h"

namespace numalab {
namespace storage {
namespace {

using workloads::Env;
using workloads::RunConfig;
using workloads::SimContext;

RunConfig SmallRun() {
  RunConfig rc;
  rc.machine = "A";  // 8 nodes x 2 cores: full shard fan-out
  rc.threads = 1;
  return rc;
}

/// 24 pages (253 slots each) over 8 shards: pages {0, 8, 16} land on
/// shard 0, so a 2-frame shard must evict. Checkpoints off by default so
/// the WAL tests control truncation explicitly.
StorageConfig SmallConfig() {
  StorageConfig cfg;
  cfg.enabled = true;
  cfg.rows = 24 * 253;
  cfg.frames_per_shard = 2;
  cfg.checkpoint_interval_records = 0;
  return cfg;
}

/// One Get per page, at the page's first row: one pool lookup each.
sim::Task GetSequence(Env& env, StorageEngine* eng,
                      const std::vector<uint64_t>* pages) {
  for (uint64_t page : *pages) {
    uint64_t v = 0;
    EXPECT_TRUE(eng->Get(env, page * eng->rows_per_page(), &v));
    co_await env.Checkpoint();
  }
}

TEST(StorageTest, PageGeometryAndPreload) {
  SimContext ctx(SmallRun());
  StorageConfig cfg = SmallConfig();
  StorageEngine eng(cfg, ctx.machine().num_nodes(), /*seed=*/42, nullptr);
  EXPECT_EQ(eng.rows_per_page(), 253u);  // 8 + 4*8 + 16*253 <= 4096
  EXPECT_EQ(eng.pages(), 24u);
  EXPECT_EQ(eng.shard_of(0), 0);
  EXPECT_EQ(eng.shard_of(9), 1);
  // The preloaded table digests identically without any simulated access.
  StorageEngine twin(cfg, ctx.machine().num_nodes(), /*seed=*/7, nullptr);
  EXPECT_EQ(eng.Checksum(), twin.Checksum());
  EXPECT_NE(eng.Checksum(), 0u);
}

TEST(StorageTest, EvictionOrderIsDeterministic) {
  // Two same-seed runs over the same page sequence must make identical
  // eviction decisions, leave the identical cached set, and serialize to
  // identical stats JSON.
  auto drive = [](uint64_t* cycles) {
    RunConfig rc = SmallRun();
    SimContext ctx(rc);
    StorageConfig cfg = SmallConfig();
    StorageEngine eng(cfg, ctx.machine().num_nodes(), rc.seed, nullptr);
    const std::vector<uint64_t> pages = {0, 8, 0, 16, 8, 16};
    ctx.SpawnWorkers(
        [&](Env& env) { return GetSequence(env, &eng, &pages); });
    workloads::RunResult result;
    ctx.Finish(&result);
    EXPECT_TRUE(result.status.ok());
    *cycles = result.cycles;
    // Second-chance clock: 0 and 8 fill the shard; re-referencing 0 sets
    // its ref bit, but fetching 16 sweeps both refs clear and the second
    // lap still lands on frame 0 — page 0 is evicted, then 8 and 16 hit.
    EXPECT_FALSE(eng.Cached(0));
    EXPECT_TRUE(eng.Cached(8));
    EXPECT_TRUE(eng.Cached(16));
    StorageStats st = eng.stats();
    EXPECT_EQ(st.lookups, 6u);
    EXPECT_EQ(st.hits, 3u);
    EXPECT_EQ(st.misses, 3u);
    EXPECT_EQ(st.evictions, 1u);
    return StorageJson(cfg, st);
  };
  uint64_t cycles_a = 0, cycles_b = 0;
  std::string a = drive(&cycles_a);
  std::string b = drive(&cycles_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cycles_a, cycles_b);
}

sim::Task ReplayIdempotenceOps(Env& env, StorageEngine* eng) {
  // 10 upserts each into page 0 and page 8 (both shard 0) and page 1
  // (shard 1); all three frames stay cached and dirty.
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(eng->Upsert(env, i, PreloadValue(i) + 1));
    EXPECT_TRUE(eng->Upsert(env, 8 * 253 + i, i + 1));
    EXPECT_TRUE(eng->Upsert(env, 253 + i, i + 2));
  }
  uint64_t expect = eng->Checksum();

  // Crash shard 0: pages 0 and 8 lose their only up-to-date copies, and
  // redo must replay exactly their 20 records from the force-flushed WAL.
  eng->RecoverAfterCrash(env, 0);
  StorageStats after0 = eng->stats();
  EXPECT_EQ(after0.crashes, 1u);
  EXPECT_EQ(after0.recovery_dirty_frames_lost, 2u);
  EXPECT_EQ(after0.recovery_records_replayed, 20u);
  EXPECT_EQ(eng->Checksum(), expect);

  // Crash shard 1 next: its redo pass rescans the *whole* WAL, but the
  // per-page LSN guard skips every record already applied to pages 0 and
  // 8 — only page 1's 10 records replay. Idempotence, observably.
  eng->RecoverAfterCrash(env, 1);
  StorageStats after1 = eng->stats();
  EXPECT_EQ(after1.crashes, 2u);
  EXPECT_EQ(after1.recovery_records_replayed, 30u);
  EXPECT_EQ(eng->Checksum(), expect);

  // A Get through a surviving shard still sees the recovered value.
  uint64_t v = 0;
  EXPECT_TRUE(eng->Get(env, 0, &v));
  EXPECT_EQ(v, PreloadValue(0) + 1);
  co_return;
}

TEST(StorageTest, WalReplayIsIdempotent) {
  RunConfig rc = SmallRun();
  SimContext ctx(rc);
  StorageConfig cfg = SmallConfig();
  cfg.frames_per_shard = 4;  // pages 0 and 8 stay cached together
  StorageEngine eng(cfg, ctx.machine().num_nodes(), rc.seed, nullptr);
  ctx.SpawnWorkers([&](Env& env) { return ReplayIdempotenceOps(env, &eng); });
  workloads::RunResult result;
  ctx.Finish(&result);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
}

sim::Task CheckpointOps(Env& env, StorageEngine* eng) {
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(eng->Upsert(env, i, i + 7));  // all page 0, shard 0
  }
  // Checkpoints fired at records 8 and 16, each truncating the log; only
  // the 4 post-checkpoint records stay live.
  StorageStats st = eng->stats();
  EXPECT_EQ(st.checkpoints, 2u);
  EXPECT_EQ(st.wal_truncated_records, 16u);
  EXPECT_EQ(eng->wal_live_records() + eng->wal_buffered_records(), 4u);

  // A crash now only redoes the post-checkpoint tail.
  uint64_t expect = eng->Checksum();
  eng->RecoverAfterCrash(env, 0);
  StorageStats rec = eng->stats();
  EXPECT_EQ(rec.recovery_records_scanned, 4u);
  EXPECT_EQ(rec.recovery_records_replayed, 4u);
  EXPECT_EQ(eng->Checksum(), expect);
  co_return;
}

TEST(StorageTest, CheckpointTruncatesTheLogAndBoundsRedo) {
  RunConfig rc = SmallRun();
  SimContext ctx(rc);
  StorageConfig cfg = SmallConfig();
  cfg.checkpoint_interval_records = 8;
  StorageEngine eng(cfg, ctx.machine().num_nodes(), rc.seed, nullptr);
  ctx.SpawnWorkers([&](Env& env) { return CheckpointOps(env, &eng); });
  workloads::RunResult result;
  ctx.Finish(&result);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
}

TEST(StorageServeTest, ServingStreamThroughStorageIsDeterministic) {
  // Serving with config.storage enabled: same-seed runs must agree
  // bit-for-bit on the storage section, and the accounting invariants the
  // JSON validator enforces must hold.
  RunConfig rc;
  rc.machine = "A";
  rc.threads = 4;
  serve::ServeConfig sc;
  sc.requests = 300;
  sc.kv_keys = 1 << 12;
  sc.probe_build_rows = 1024;
  sc.mean_gap_cycles = 4'000;
  sc.mix_point = 0.4;
  sc.mix_range = 0.2;
  sc.mix_probe = 0;
  sc.mix_upsert = 0.4;
  sc.mix_tpch = 0;
  sc.storage.enabled = true;
  sc.storage.frames_per_shard = 4;
  serve::ServeResult a = serve::RunServing(rc, sc);
  // Run b with the export collector on: collection is bookkeeping, so b must
  // still match a, and b's "storage" section is what a bench would export.
  trace::SetCollectEnabled(true);
  serve::ServeResult b = serve::RunServing(rc, sc);
  trace::SetCollectEnabled(false);
  std::vector<trace::CollectedRun> runs = trace::CollectedRuns();
  trace::ClearCollectedRuns();
  ASSERT_TRUE(a.run.status.ok()) << a.run.status.ToString();
  EXPECT_EQ(a.run.cycles, b.run.cycles);
  EXPECT_EQ(StorageJson(sc.storage, a.storage),
            StorageJson(sc.storage, b.storage));
  EXPECT_GT(a.storage.upserts, 0u);
  EXPECT_GT(a.storage.gets, 0u);
  EXPECT_GT(a.storage.scan_rows, 0u);
  EXPECT_EQ(a.storage.hits + a.storage.misses, a.storage.lookups);
  EXPECT_EQ(a.storage.crashes, 0u);
  uint64_t shard_lookups = 0;
  for (const ShardStats& s : a.storage.shards) shard_lookups += s.lookups;
  EXPECT_EQ(shard_lookups, a.storage.lookups);

  // The live run's exported config: rows is the run's kv_keys, page_bytes
  // the fixed page format, the rest the ServeConfig's storage settings.
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(runs[0].sections.size(), 2u);
  EXPECT_EQ(runs[0].sections[1].key, "storage");
  EXPECT_EQ(runs[0].sections[1].json.rfind(
                "{\"enabled\":true,\"rows\":4096,\"page_bytes\":4096,"
                "\"frames_per_shard\":4,\"placement\":\"local\","
                "\"checkpoint_interval\":4096",
                0),
            0u)
      << runs[0].sections[1].json;
}

}  // namespace
}  // namespace storage
}  // namespace numalab
