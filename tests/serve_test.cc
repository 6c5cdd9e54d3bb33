// Tests for numalab::serve — determinism, admission control, dynamic
// batching, arrival processes, faultlab interaction and the histogram
// cross-check (DESIGN.md section 11).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/faultlab/fault_plan.h"
#include "src/serve/serve.h"
#include "src/workloads/run_config.h"

namespace numalab {
namespace serve {
namespace {

using workloads::RunConfig;

/// A small, fast serving experiment: mixed stream minus TPC-H (the minidb
/// tests own that path; one test below turns it back on).
ServeConfig SmallConfig() {
  ServeConfig sc;
  sc.requests = 400;
  sc.kv_keys = 1 << 12;
  sc.probe_build_rows = 1024;
  sc.mean_gap_cycles = 8'000;
  sc.mix_tpch = 0;
  return sc;
}

RunConfig SmallRun() {
  RunConfig rc;
  rc.machine = "A";
  rc.threads = 4;
  return rc;
}

void ExpectAdmissionInvariants(const ServingStats& st, uint64_t requests) {
  EXPECT_EQ(st.offered, requests);
  EXPECT_EQ(st.admitted + st.dropped, st.offered);
  EXPECT_EQ(st.completed, st.admitted);
  EXPECT_EQ(st.rejected, st.retries + st.dropped);
  EXPECT_EQ(st.latency.total(), st.completed);
}

TEST(ServeTest, CompletesMixedStreamAndKeepsInvariants) {
  ServeResult r = RunServing(SmallRun(), SmallConfig());
  ASSERT_TRUE(r.run.status.ok()) << r.run.status.ToString();
  ExpectAdmissionInvariants(r.stats, 400);
  EXPECT_EQ(r.stats.dropped, 0u);  // uncontended: nothing should shed
  EXPECT_GT(r.stats.batches, 0u);
  EXPECT_GT(r.stats.makespan_cycles, 0u);
  EXPECT_LE(r.stats.p50, r.stats.p95);
  EXPECT_LE(r.stats.p95, r.stats.p99);
  EXPECT_LE(r.stats.p99, r.stats.max);
  // Every request type in the default mix actually completed.
  for (int t = 0; t < kNumRequestTypes - 1; ++t) {
    EXPECT_GT(r.stats.types[t].completed, 0u)
        << RequestTypeName(static_cast<RequestType>(t));
  }
}

TEST(ServeTest, SameSeedRunsAreBitIdentical) {
  RunConfig rc = SmallRun();
  ServeConfig sc = SmallConfig();
  ServeResult a = RunServing(rc, sc);
  ServeResult b = RunServing(rc, sc);
  ASSERT_TRUE(a.run.status.ok());
  EXPECT_EQ(a.run.cycles, b.run.cycles);
  EXPECT_EQ(a.stats.checksum, b.stats.checksum);
  EXPECT_EQ(ServingJson(sc, a.stats), ServingJson(sc, b.stats));
}

TEST(ServeTest, DifferentSeedsDiffer) {
  RunConfig rc = SmallRun();
  ServeConfig sc = SmallConfig();
  ServeResult a = RunServing(rc, sc);
  rc.seed = 1234;
  ServeResult b = RunServing(rc, sc);
  EXPECT_NE(ServingJson(sc, a.stats), ServingJson(sc, b.stats));
}

TEST(ServeTest, EveryArrivalProcessCompletes) {
  for (Arrival a : {Arrival::kPoisson, Arrival::kBurst}) {
    ServeConfig sc = SmallConfig();
    sc.arrival = a;
    sc.requests = 200;
    ServeResult r = RunServing(SmallRun(), sc);
    ASSERT_TRUE(r.run.status.ok()) << ArrivalName(a);
    ExpectAdmissionInvariants(r.stats, 200);
    EXPECT_GT(r.stats.completed, 0u) << ArrivalName(a);
  }
}

TEST(ServeTest, OverloadShedsButBoundsQueuesAndLatency) {
  ServeConfig sc = SmallConfig();
  sc.arrival = Arrival::kBurst;       // whole bursts slam the queues
  sc.burst_size = 128;
  sc.mean_gap_cycles = 40;            // far beyond service capacity
  sc.queue_cap = 8;
  sc.max_retries = 1;
  sc.retry_backoff_cycles = 2'000;
  sc.requests = 600;
  ServeResult r = RunServing(SmallRun(), sc);
  ASSERT_TRUE(r.run.status.ok());
  ExpectAdmissionInvariants(r.stats, 600);
  EXPECT_GT(r.stats.rejected, 0u);
  EXPECT_GT(r.stats.dropped, 0u);
  // The bound holds on every queue, globally and per node.
  EXPECT_LE(r.stats.max_queue_depth, sc.queue_cap);
  for (const NodeStats& ns : r.stats.nodes) {
    EXPECT_LE(ns.max_depth, sc.queue_cap);
  }
  // Admitted requests still finish with finite tail latency.
  EXPECT_GT(r.stats.completed, 0u);
  EXPECT_GT(r.stats.p99, 0u);
  EXPECT_GE(r.stats.max, r.stats.p99);
}

TEST(ServeTest, DynamicBatchingBeatsUnbatchedDispatch) {
  // Point-only stream at high locality, offered well above service
  // capacity so the makespan is service-bound: the batcher's amortized
  // dispatch + span coalescing must cut cycles per query.
  ServeConfig sc = SmallConfig();
  sc.mix_point = 1;
  sc.mix_range = sc.mix_probe = sc.mix_upsert = 0;
  sc.point_locality = 0.9;
  sc.mean_gap_cycles = 50;
  sc.requests = 800;
  sc.queue_cap = 1024;  // isolate batching: no shedding either way

  ServeConfig unbatched = sc;
  unbatched.batch_max = 1;

  ServeResult batched = RunServing(SmallRun(), sc);
  ServeResult single = RunServing(SmallRun(), unbatched);
  ASSERT_TRUE(batched.run.status.ok());
  ASSERT_TRUE(single.run.status.ok());
  ASSERT_EQ(batched.stats.completed, 800u);
  ASSERT_EQ(single.stats.completed, 800u);
  // Identical responses either way: batching is a scheduling choice.
  EXPECT_EQ(batched.stats.checksum, single.stats.checksum);
  EXPECT_GT(batched.stats.batched_requests, 0u);
  EXPECT_GT(batched.stats.max_batch, 1u);
  EXPECT_EQ(single.stats.max_batch, 1u);
  EXPECT_LT(batched.stats.CyclesPerQuery(), single.stats.CyclesPerQuery());
}

TEST(ServeTest, OfflineNodeRedirectsAndStillCompletes) {
  ServeConfig sc = SmallConfig();
  sc.requests = 300;
  RunConfig rc = SmallRun();
  faultlab::NodeOffline off;
  off.node = 1;
  off.at_cycle = 0;  // down before serving opens
  rc.faults.offline.push_back(off);
  ServeResult r = RunServing(rc, sc);
  ASSERT_TRUE(r.run.status.ok()) << r.run.status.ToString();
  ExpectAdmissionInvariants(r.stats, 300);
  EXPECT_GT(r.stats.completed, 0u);
  uint64_t redirected = 0;
  for (const NodeStats& ns : r.stats.nodes) {
    redirected += ns.redirected_offline;
  }
  EXPECT_GT(redirected, 0u);
  // Nothing was ever enqueued on the offline node.
  EXPECT_EQ(r.stats.nodes[1].enqueued, 0u);
}

TEST(ServeTest, TpchRequestsExecute) {
  ServeConfig sc = SmallConfig();
  sc.requests = 60;
  sc.mix_point = 0.5;
  sc.mix_tpch = 0.5;
  sc.mix_range = sc.mix_probe = sc.mix_upsert = 0;
  ServeResult r = RunServing(SmallRun(), sc);
  ASSERT_TRUE(r.run.status.ok()) << r.run.status.ToString();
  ExpectAdmissionInvariants(r.stats, 60);
  EXPECT_GT(r.stats.types[static_cast<int>(RequestType::kTpch)].completed,
            0u);
}

TEST(ServeTest, HistogramAgreesWithExactPercentiles) {
  ServeResult r = RunServing(SmallRun(), SmallConfig());
  ASSERT_TRUE(r.run.status.ok());
  const ServingStats& st = r.stats;
  ASSERT_EQ(st.latency.total(), st.completed);
  // The log2 histogram's percentile is the upper edge of the bucket holding
  // the exact order statistic: at least the exact value, at most one bucket
  // (2x) above it.
  struct { double p; uint64_t exact; } cases[] = {
      {50, st.p50}, {95, st.p95}, {99, st.p99}};
  for (const auto& c : cases) {
    double hist = st.latency.Percentile(c.p);
    EXPECT_GE(hist + 1e-6, static_cast<double>(c.exact)) << c.p;
    EXPECT_LE(hist, static_cast<double>(std::max<uint64_t>(c.exact, 1)) * 2.0)
        << c.p;
  }
}

TEST(ServeDeathTest, HotKeysBeyondTheStoreAbort) {
  // Hot keys past kv_keys would read beyond the last partition slab.
  ServeConfig sc = SmallConfig();
  sc.hot_fraction = 1.0;
  sc.hot_keys = 16 * sc.kv_keys;
  EXPECT_DEATH(RunServing(SmallRun(), sc), "hot_keys <= sc.kv_keys");
}

TEST(ServeDeathTest, UnevenPartitionsAbort) {
  // Machine A has 8 nodes: 4097 keys would leave key 4096 outside every
  // equal slab.
  ServeConfig sc = SmallConfig();
  sc.kv_keys = (1 << 12) + 1;
  EXPECT_DEATH(RunServing(SmallRun(), sc), "kv_keys % nodes == 0");
}

TEST(ServeTest, ServingJsonIsWellFormedAndOrdered) {
  ServeConfig sc = SmallConfig();
  ServeResult r = RunServing(SmallRun(), sc);
  ASSERT_TRUE(r.run.status.ok());
  std::string j = ServingJson(sc, r.stats);
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  // Fixed key order, so downstream byte-comparisons are meaningful.
  const char* keys[] = {"\"arrival\"",  "\"requests\"", "\"offered\"",
                        "\"admitted\"", "\"completed\"", "\"rejected\"",
                        "\"retries\"",  "\"dropped\"",  "\"batches\"",
                        "\"latency\"",  "\"types\"",    "\"nodes\"",
                        "\"hist\""};
  size_t pos = 0;
  for (const char* k : keys) {
    size_t at = j.find(k, pos);
    ASSERT_NE(at, std::string::npos) << k;
    pos = at;
  }
}

/// Every simulated outcome the arrival stream and the worker poll loops can
/// move, as one comparable line.
std::string Fingerprint(const ServeResult& r) {
  const ServingStats& st = r.stats;
  std::string out;
  for (uint64_t v :
       {st.offered, st.admitted, st.rejected, st.retries, st.dropped,
        st.completed, st.p50, st.p95, st.p99, st.max, st.batches,
        st.batched_requests, st.max_queue_depth, st.makespan_cycles,
        st.checksum, r.run.cycles, r.run.report.threads.cycles}) {
    out += std::to_string(v) + " ";
  }
  return out;
}

TEST(ServeTest, OpenLoopStreamsMatchParentResults) {
  // Pinned values recorded before open-loop arrivals became a lazily
  // chained event series and idle/batch-window polls were charged in bulk,
  // and (the routing cases) before the partition layout, routing and slab
  // reads were each written once. All are host-side rewrites, so none of
  // these numbers may move. The small queue_cap makes retries (fresh event
  // seqs) interleave with the reserved arrival seqs, and a backoff that is
  // a multiple of the arrival period lands retries on the same cycle as
  // later arrivals, which must still pop first. Burst arrivals also tie
  // with each other.
  ServeConfig base = SmallConfig();
  base.requests = 500;
  base.mean_gap_cycles = 700;
  base.queue_cap = 4;
  base.max_retries = 2;
  base.retry_backoff_cycles = 7'000;

  ServeConfig poisson = base;
  poisson.arrival = Arrival::kPoisson;
  ServeConfig burst = base;
  burst.arrival = Arrival::kBurst;
  burst.burst_size = 16;
  burst.mean_gap_cycles = 400;
  burst.retry_backoff_cycles = 6'400;  // one burst period
  ServeConfig stored = poisson;
  stored.mix_probe = 0;
  stored.storage.enabled = true;
  stored.storage.frames_per_shard = 6;
  stored.mean_gap_cycles = 4'000;
  ServeConfig unbatched = poisson;
  unbatched.batch_max = 1;

  RunConfig first_touch = SmallRun();
  RunConfig interleave = SmallRun();
  interleave.policy = mem::MemPolicy::kInterleave;
  RunConfig preferred = SmallRun();
  preferred.policy = mem::MemPolicy::kPreferred;
  preferred.preferred_node = 1;
  // Node 1 goes offline mid-stream: its queued requests still drain, new
  // ones reroute to node 2.
  RunConfig offline = SmallRun();
  offline.faults.offline.push_back({1, 250'000});

  // A small bench_placement: hash-spread reads of a hot range in node 0's
  // slab on Machine C, with caches ablated and hot-page replication on.
  ServeConfig skewed = poisson;
  skewed.mix_point = 0.55;
  skewed.mix_range = 0.40;
  skewed.mix_probe = 0.03;
  skewed.mix_upsert = 0.02;
  skewed.kv_keys = 1 << 14;
  skewed.hot_fraction = 0.9;
  skewed.hot_keys = 1024;
  skewed.spread_reads = true;
  skewed.mean_gap_cycles = 2'000;
  skewed.queue_cap = 500;
  RunConfig placement = SmallRun();
  placement.machine = "C";
  placement.costs.model_caches = false;
  placement.placement = true;

  struct Case {
    const char* name;
    const RunConfig* rc;
    const ServeConfig* sc;
    const char* want;
  } cases[] = {
      {"poisson", &first_touch, &poisson,
       "500 500 6 6 0 500 4995 12410 15403 25007 374 207 4 364226 "
       "7186229535055109726 462978 1727992 "},
      {"burst", &first_touch, &burst,
       "500 422 371 293 78 422 9307 35342 70897 129350 276 218 4 220888 "
       "1030722672291735089 319520 1150446 "},
      {"poisson+storage", &first_touch, &stored,
       "500 380 381 261 120 380 9458 368880 965894 1049243 303 127 4 2038648 "
       "15286237417337836038 2139049 8437981 "},
      {"interleave", &interleave, &poisson,
       "500 500 1 1 0 500 5207 13142 17703 26405 434 122 4 365420 "
       "7186229535055109726 429781 1710018 "},
      {"preferred", &preferred, &poisson,
       "500 482 235 217 18 482 5965 24091 27035 42061 338 227 4 376081 "
       "493686864927888817 459680 1753004 "},
      {"offline", &offline, &poisson,
       "500 500 9 9 0 500 4972 12689 17720 25007 381 196 4 362874 "
       "7186229535055109726 462340 1729520 "},
      {"unbatched", &first_touch, &unbatched,
       "500 500 6 6 0 500 2317 10392 13072 25007 500 0 4 361636 "
       "7186229535055109726 460388 1722068 "},
      {"placement", &placement, &skewed,
       "500 500 0 0 0 500 16055 61633 96245 121900 418 136 17 1059317 "
       "7093725241235534470 1169724 4655973 "},
  };
  for (const Case& c : cases) {
    ServeResult r = RunServing(*c.rc, *c.sc);
    ASSERT_TRUE(r.run.status.ok()) << c.name;
    EXPECT_EQ(Fingerprint(r), c.want) << c.name;
    if (c.rc == &offline) {
      // Mid-stream: node 1 admitted requests before it went down and
      // rerouted them after.
      EXPECT_GT(r.stats.nodes[1].enqueued, 0u);
      EXPECT_GT(r.stats.nodes[1].redirected_offline, 0u);
    }
    if (c.rc == &placement) {
      EXPECT_GT(r.run.report.system.pages_replicated, 0u);
    }
  }
}

TEST(ServeTest, OpenLoopStreamKeepsFewEventsPending) {
  // Arrivals are chained lazily (each schedules its successor), so the
  // engine holds one pending arrival plus the OS daemon ticks, not the
  // whole stream. Uncontended, so no retries are in flight either.
  RunConfig rc = SmallRun();
  for (Arrival a : {Arrival::kPoisson, Arrival::kBurst}) {
    ServeConfig sc = SmallConfig();
    sc.arrival = a;
    sc.requests = 2'000;
    ServeResult r = RunServing(rc, sc);
    ASSERT_TRUE(r.run.status.ok()) << ArrivalName(a);
    EXPECT_EQ(r.stats.retries, 0u) << ArrivalName(a);
    EXPECT_GE(r.peak_pending_events, 1u) << ArrivalName(a);
    EXPECT_LE(r.peak_pending_events, static_cast<uint64_t>(rc.threads) + 1)
        << ArrivalName(a);
  }
}

}  // namespace
}  // namespace serve
}  // namespace numalab
