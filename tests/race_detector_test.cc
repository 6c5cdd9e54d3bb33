// Unit tests for the numalab::sanity happens-before race detector, plus
// SimContext integration: a seeded race is caught with a useful report and
// the real workloads run clean.

#include <gtest/gtest.h>

#include "src/sanity/race_detector.h"
#include "src/serve/serve.h"
#include "src/sim/engine.h"
#include "src/workloads/sim_context.h"
#include "src/workloads/workloads.h"

namespace numalab {
namespace sanity {
namespace {

constexpr uint64_t kLine = kShadowLineBytes;

class RaceDetectorApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rd.OnThreadStart(0, "t0", -1);
    rd.OnThreadStart(1, "t1", -1);
  }
  RaceDetector rd;
};

TEST_F(RaceDetectorApiTest, UnorderedWriteWriteRaces) {
  rd.OnAccess(0, 0 * kLine, 8, /*write=*/true, 100);
  rd.OnAccess(1, 0 * kLine, 8, /*write=*/true, 200);
  ASSERT_EQ(rd.reports().size(), 1u);
  const auto& r = rd.reports()[0];
  EXPECT_EQ(r.tid, 1);
  EXPECT_EQ(r.prior_tid, 0);
  EXPECT_TRUE(r.is_write);
  EXPECT_TRUE(r.prior_is_write);
  EXPECT_EQ(r.line, 0u);
  EXPECT_EQ(r.vclock, 200u);
  EXPECT_EQ(r.prior_vclock, 100u);
}

TEST_F(RaceDetectorApiTest, UnorderedWriteReadRaces) {
  rd.OnAccess(0, 0, 8, /*write=*/false, 1);
  rd.OnAccess(1, 0, 8, /*write=*/true, 2);
  ASSERT_EQ(rd.reports().size(), 1u);
  EXPECT_TRUE(rd.reports()[0].is_write);
  EXPECT_FALSE(rd.reports()[0].prior_is_write);
}

TEST_F(RaceDetectorApiTest, ReadReadNeverRaces) {
  rd.OnAccess(0, 0, 8, /*write=*/false, 1);
  rd.OnAccess(1, 0, 8, /*write=*/false, 2);
  EXPECT_TRUE(rd.clean());
}

TEST_F(RaceDetectorApiTest, LockOrdersCriticalSections) {
  int lock = 0;
  rd.OnAcquire(0, &lock);
  rd.OnAccess(0, 0, 8, /*write=*/true, 1);
  rd.OnRelease(0, &lock);
  rd.OnAcquire(1, &lock);
  rd.OnAccess(1, 0, 8, /*write=*/true, 2);
  rd.OnRelease(1, &lock);
  EXPECT_TRUE(rd.clean());
}

TEST_F(RaceDetectorApiTest, DistinctLocksDoNotOrder) {
  int lock_a = 0, lock_b = 0;
  rd.OnAcquire(0, &lock_a);
  rd.OnAccess(0, 0, 8, /*write=*/true, 1);
  rd.OnRelease(0, &lock_a);
  rd.OnAcquire(1, &lock_b);
  rd.OnAccess(1, 0, 8, /*write=*/true, 2);
  rd.OnRelease(1, &lock_b);
  EXPECT_EQ(rd.reports().size(), 1u);
}

TEST_F(RaceDetectorApiTest, ForkEdgeOrdersParentBeforeChild) {
  rd.OnAccess(0, 0, 8, /*write=*/true, 1);
  rd.OnThreadStart(2, "child", /*parent_tid=*/0);
  rd.OnAccess(2, 0, 8, /*write=*/true, 2);
  EXPECT_TRUE(rd.clean());
  // The parent's *later* writes are concurrent with the child.
  rd.OnAccess(0, kLine, 8, /*write=*/true, 3);
  rd.OnAccess(2, kLine, 8, /*write=*/true, 4);
  EXPECT_EQ(rd.reports().size(), 1u);
}

TEST_F(RaceDetectorApiTest, JoinEdgeOrdersChildBeforeRoot) {
  rd.OnAccess(0, 0, 8, /*write=*/true, 1);
  rd.OnThreadFinish(0);
  rd.OnAccess(-1, 0, 8, /*write=*/true, 2);  // root/setup context
  EXPECT_TRUE(rd.clean());
}

TEST_F(RaceDetectorApiTest, BarrierOrdersAllSides) {
  int barrier = 0;
  rd.OnAccess(0, 0, 8, /*write=*/true, 1);
  rd.OnAccess(1, kLine, 8, /*write=*/true, 1);
  rd.OnBarrier(&barrier, {0, 1});
  rd.OnAccess(1, 0, 8, /*write=*/true, 2);  // reads t0's pre-barrier write
  rd.OnAccess(0, kLine, 8, /*write=*/true, 2);
  EXPECT_TRUE(rd.clean());
}

TEST_F(RaceDetectorApiTest, FalseSharingIsNotARace) {
  // Two threads write disjoint words of one line: false sharing, clean.
  rd.OnAccess(0, 0 * kShadowWordBytes, 8, /*write=*/true, 1);
  rd.OnAccess(1, 3 * kShadowWordBytes, 8, /*write=*/true, 2);
  EXPECT_TRUE(rd.clean());
  // ...until one of them touches the other's word.
  rd.OnAccess(1, 0 * kShadowWordBytes, 8, /*write=*/true, 3);
  ASSERT_EQ(rd.reports().size(), 1u);
  EXPECT_EQ(rd.reports()[0].word, 0);
}

TEST_F(RaceDetectorApiTest, NeighbouringWordReadersDoNotPoisonWriters) {
  // Regression for the hash-bucket pattern: many threads read *different*
  // words of one line, then one thread writes the word only it ever read.
  rd.OnThreadStart(2, "t2", -1);
  rd.OnAccess(0, 0 * kShadowWordBytes, 8, /*write=*/false, 1);
  rd.OnAccess(1, 3 * kShadowWordBytes, 8, /*write=*/false, 1);
  rd.OnAccess(2, 5 * kShadowWordBytes, 8, /*write=*/false, 1);
  rd.OnAccess(0, 0 * kShadowWordBytes, 8, /*write=*/true, 2);
  EXPECT_TRUE(rd.clean());
}

TEST_F(RaceDetectorApiTest, ReadSharedStillCatchesRacingWriter) {
  rd.OnThreadStart(2, "t2", -1);
  // Whole-line reads by three threads promote to a read vector clock.
  rd.OnAccess(0, 0, kLine, /*write=*/false, 1);
  rd.OnAccess(1, 0, kLine, /*write=*/false, 1);
  rd.OnAccess(2, 0, kLine, /*write=*/false, 1);
  rd.OnAccess(0, 0, 8, /*write=*/true, 2);  // unordered vs readers 1 and 2
  EXPECT_FALSE(rd.clean());
}

TEST_F(RaceDetectorApiTest, AllocationClearsHistoryAndNamesBlock) {
  rd.OnAccess(0, 0, 8, /*write=*/true, 1);
  // The block is freed and handed to t1: no HB edge, but no history either.
  rd.OnAlloc(1, 0, 64, 10);
  rd.OnAccess(1, 0, 8, /*write=*/true, 2);
  EXPECT_TRUE(rd.clean());
  // A third party racing on the re-used block names the new allocation.
  rd.OnAccess(0, 0, 8, /*write=*/true, 3);
  ASSERT_EQ(rd.reports().size(), 1u);
  EXPECT_NE(rd.reports()[0].text.find("allocated by"), std::string::npos);
}

TEST_F(RaceDetectorApiTest, SpanAccessTilesAllLines) {
  rd.OnAccess(0, 0, 4 * kLine, /*write=*/true, 1);
  rd.OnAccess(1, 3 * kLine, 8, /*write=*/true, 2);  // races with the tail
  EXPECT_EQ(rd.reports().size(), 1u);
  EXPECT_EQ(rd.reports()[0].line, 3u);
}

TEST_F(RaceDetectorApiTest, DedupesReportsPerLine) {
  for (int i = 0; i < 10; ++i) {
    rd.OnAccess(i % 2, 0, 8, /*write=*/true, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(rd.reports().size(), 1u);
  EXPECT_GT(rd.races_observed(), 1u);
}

// --- SimContext integration ------------------------------------------------

sim::Task RacyWriter(workloads::Env& env, uint64_t* shared) {
  for (int i = 0; i < 4; ++i) {
    env.Write(shared, sizeof(uint64_t));  // no lock: a genuine modeled race
    co_await env.Checkpoint();
  }
}

TEST(RaceDetectorSimTest, SeededRaceIsCaught) {
  workloads::RunConfig cfg;
  cfg.threads = 2;
  cfg.race_detect = true;
  workloads::SimContext ctx(cfg);
  auto* shared = static_cast<uint64_t*>(ctx.allocator()->Alloc(8));
  ctx.SpawnWorkers(
      [&](workloads::Env& env) { return RacyWriter(env, shared); });
  workloads::RunResult result;
  ctx.Finish(&result);
  EXPECT_GT(result.races, 0u);
  ASSERT_FALSE(result.race_reports.empty());
  EXPECT_NE(result.race_reports[0].find("DATA RACE"), std::string::npos);
  EXPECT_NE(result.race_reports[0].find("worker0"), std::string::npos);
  EXPECT_NE(result.race_reports[0].find("worker1"), std::string::npos);
  EXPECT_NE(result.race_reports[0].find("node "), std::string::npos);
}

TEST(RaceDetectorSimTest, W1RunsCleanAndResultsAreUnchanged) {
  workloads::RunConfig cfg;
  cfg.threads = 4;
  cfg.num_records = 50'000;
  cfg.cardinality = 5'000;
  workloads::RunResult plain = workloads::RunW1HolisticAggregation(cfg);
  cfg.race_detect = true;
  workloads::RunResult checked = workloads::RunW1HolisticAggregation(cfg);
  EXPECT_EQ(checked.races, 0u) << (checked.race_reports.empty()
                                       ? ""
                                       : checked.race_reports[0]);
  // Pure-bookkeeping contract: identical simulated results either way.
  EXPECT_EQ(plain.cycles, checked.cycles);
  EXPECT_EQ(plain.checksum, checked.checksum);
}

TEST(RaceDetectorSimTest, W3RunsClean) {
  workloads::RunConfig cfg;
  cfg.threads = 4;
  cfg.build_rows = 10'000;
  cfg.probe_rows = 80'000;
  cfg.race_detect = true;
  workloads::RunResult r = workloads::RunW3HashJoin(cfg);
  EXPECT_EQ(r.races, 0u) << (r.race_reports.empty() ? ""
                                                    : r.race_reports[0]);
}

TEST(RaceDetectorSimTest, ServingMixedStreamRunsClean) {
  // The serving layer hammers ConcurrentHashTable::UpsertWith/UpsertSet
  // from every worker at once — the striped warmup build plus the mixed
  // stream's concurrent upserts and lock-free probes — while workers also
  // contend on the per-node queue locks. All of it must be race-free under
  // the happens-before detector.
  workloads::RunConfig cfg;
  cfg.machine = "A";
  cfg.threads = 4;
  cfg.race_detect = true;
  serve::ServeConfig sc;
  sc.requests = 300;
  sc.kv_keys = 1 << 12;
  sc.probe_build_rows = 1024;
  sc.mean_gap_cycles = 2'000;  // enough pressure for overlapping batches
  sc.mix_point = 0.3;
  sc.mix_range = 0.1;
  sc.mix_probe = 0.3;
  sc.mix_upsert = 0.3;  // upsert-heavy: stripe locks do real work
  sc.mix_tpch = 0;
  serve::ServeResult r = serve::RunServing(cfg, sc);
  ASSERT_TRUE(r.run.status.ok()) << r.run.status.ToString();
  EXPECT_EQ(r.stats.completed, r.stats.admitted);
  EXPECT_EQ(r.run.races, 0u)
      << (r.run.race_reports.empty() ? "" : r.run.race_reports[0]);
}

TEST(RaceDetectorSimTest, StorageUpsertScanStreamRunsClean) {
  // The WAL-backed storage path: every worker hammers the buffer-pool
  // shard stripe locks at once — concurrent upserts (WAL appends + in-frame
  // slot writes), point gets, and multi-page scans, with evictions and
  // dirty writebacks moving whole page images under the shard locks. The
  // happens-before detector must see every frame/WAL access ordered by the
  // Env::Lock/LockReleased edges.
  workloads::RunConfig cfg;
  cfg.machine = "A";
  cfg.threads = 4;
  cfg.race_detect = true;
  serve::ServeConfig sc;
  sc.requests = 300;
  sc.kv_keys = 1 << 13;  // 33 pages over 8 two-frame shards: eviction-hot
  sc.probe_build_rows = 1024;
  sc.mean_gap_cycles = 2'000;
  sc.mix_point = 0.25;
  sc.mix_range = 0.25;  // scans walk pages across shards
  sc.mix_probe = 0;
  sc.mix_upsert = 0.5;  // upsert-heavy: WAL + dirty frames do real work
  sc.mix_tpch = 0;
  sc.storage.enabled = true;
  sc.storage.frames_per_shard = 2;  // tiny pool: evictions under contention
  serve::ServeResult r = serve::RunServing(cfg, sc);
  ASSERT_TRUE(r.run.status.ok()) << r.run.status.ToString();
  EXPECT_GT(r.storage.upserts, 0u);
  EXPECT_GT(r.storage.evictions, 0u);
  EXPECT_EQ(r.run.races, 0u)
      << (r.run.race_reports.empty() ? "" : r.run.race_reports[0]);
}

}  // namespace
}  // namespace sanity
}  // namespace numalab
