// numalab::trace coverage: span tree invariants on a real workload run,
// per-node rollup vs the run-total PerfReport, the zero-cost-off contract,
// collector gating, a byte-exact JSON emitter golden, and determinism
// (same seed => identical JSON bytes on both memory paths).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/perf/counters.h"
#include "src/trace/export.h"
#include "src/workloads/run_config.h"
#include "src/workloads/workloads.h"

namespace numalab {
namespace trace {
namespace {

void ExpectSameCounters(const perf::ThreadCounters& a,
                        const perf::ThreadCounters& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.thread_migrations, b.thread_migrations);
  EXPECT_EQ(a.mem_accesses, b.mem_accesses);
  EXPECT_EQ(a.private_hits, b.private_hits);
  EXPECT_EQ(a.llc_hits, b.llc_hits);
  EXPECT_EQ(a.llc_misses, b.llc_misses);
  EXPECT_EQ(a.local_dram, b.local_dram);
  EXPECT_EQ(a.remote_dram, b.remote_dram);
  EXPECT_EQ(a.tlb_hits, b.tlb_hits);
  EXPECT_EQ(a.tlb_misses, b.tlb_misses);
  EXPECT_EQ(a.hinting_faults, b.hinting_faults);
  EXPECT_EQ(a.alloc_calls, b.alloc_calls);
  EXPECT_EQ(a.free_calls, b.free_calls);
  EXPECT_EQ(a.alloc_cycles, b.alloc_cycles);
  EXPECT_EQ(a.lock_wait_cycles, b.lock_wait_cycles);
  EXPECT_EQ(a.queue_delay_cycles, b.queue_delay_cycles);
}

// Small, quick W3 cell; trace recorder attached per-run (not the process
// collector), so these tests leave the global export state untouched.
workloads::RunConfig TracedConfig() {
  workloads::RunConfig c;
  c.threads = 4;
  c.build_rows = 10'000;
  c.probe_rows = 80'000;
  c.trace = true;
  return c;
}

TEST(TraceSpans, NestingAndOrderingInvariants) {
  workloads::RunResult r = workloads::RunW3HashJoin(TracedConfig());
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  const std::vector<SpanRecord>& spans = r.trace.spans;
  ASSERT_FALSE(spans.empty());
  ASSERT_EQ(r.trace.threads.size(), 4u);

  int roots = 0, builds = 0, probes = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    EXPECT_GE(s.end_cycle, s.start_cycle) << s.name;
    EXPECT_GE(s.node, 0) << s.name;
    EXPECT_GE(s.thread_id, 0) << s.name;
    // Records are appended at Begin, so a parent always precedes its
    // children; the root of each stack has depth 0.
    ASSERT_GE(s.parent, -1);
    ASSERT_LT(s.parent, static_cast<int64_t>(i));
    if (s.parent == -1) {
      EXPECT_EQ(s.depth, 0) << s.name;
    } else {
      const SpanRecord& p = spans[static_cast<size_t>(s.parent)];
      EXPECT_EQ(s.depth, p.depth + 1) << s.name;
      EXPECT_EQ(s.thread_id, p.thread_id) << s.name;
      // Child window nested in the parent's, and the child consumed no
      // more than the parent on every monotone counter.
      EXPECT_GE(s.start_cycle, p.start_cycle) << s.name;
      EXPECT_LE(s.end_cycle, p.end_cycle) << s.name;
      EXPECT_LE(s.delta.cycles, p.delta.cycles) << s.name;
      EXPECT_LE(s.delta.mem_accesses, p.delta.mem_accesses) << s.name;
    }
    if (s.name == "worker") ++roots;
    if (s.name == "build") ++builds;
    if (s.name == "probe") ++probes;
  }
  // One root span per worker thread, each with a build and a probe phase.
  EXPECT_EQ(roots, 4);
  EXPECT_EQ(builds, 4);
  EXPECT_EQ(probes, 4);
}

TEST(TraceSpans, PerNodeRollupSumsToRunTotal) {
  workloads::RunResult r = workloads::RunW3HashJoin(TracedConfig());
  ASSERT_TRUE(r.status.ok());
  // Root spans cover entire worker bodies, so summing their deltas —
  // however they distribute over nodes — must reproduce the aggregate
  // PerfReport exactly. This is the invariant scripts/validate_bench_json.py
  // asserts on every exported document.
  perf::ThreadCounters rollup;
  int roots = 0;
  for (const SpanRecord& s : r.trace.spans) {
    if (s.depth != 0) continue;
    rollup.Add(s.delta);
    ++roots;
  }
  ASSERT_GT(roots, 0);
  ExpectSameCounters(rollup, r.report.threads);

  // The per-thread summaries sum to the same total.
  perf::ThreadCounters by_thread;
  for (const ThreadSummary& t : r.trace.threads) by_thread.Add(t.counters);
  ExpectSameCounters(by_thread, r.report.threads);
}

TEST(TraceSpans, RecordingIsZeroCost) {
  workloads::RunConfig off = TracedConfig();
  off.trace = false;
  workloads::RunResult plain = workloads::RunW3HashJoin(off);
  workloads::RunResult traced = workloads::RunW3HashJoin(TracedConfig());
  // No recorder attached => no trace payload...
  EXPECT_TRUE(plain.trace.empty());
  EXPECT_FALSE(traced.trace.empty());
  // ...and attaching one is pure bookkeeping: the simulated run is
  // bit-identical with and without it.
  EXPECT_EQ(plain.cycles, traced.cycles);
  EXPECT_EQ(plain.checksum, traced.checksum);
  EXPECT_EQ(plain.resident_peak, traced.resident_peak);
  ExpectSameCounters(plain.report.threads, traced.report.threads);
}

TEST(TraceSpans, ScalarAndSpanMemPathsRecordIdenticalSpans) {
  workloads::RunConfig fast = TracedConfig();
  workloads::RunConfig ref = TracedConfig();
  ref.scalar_mem_path = true;
  workloads::RunResult a = workloads::RunW3HashJoin(fast);
  workloads::RunResult b = workloads::RunW3HashJoin(ref);
  ASSERT_EQ(a.trace.spans.size(), b.trace.spans.size());
  for (size_t i = 0; i < a.trace.spans.size(); ++i) {
    const SpanRecord& x = a.trace.spans[i];
    const SpanRecord& y = b.trace.spans[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.thread_id, y.thread_id);
    EXPECT_EQ(x.node, y.node);
    EXPECT_EQ(x.parent, y.parent);
    EXPECT_EQ(x.start_cycle, y.start_cycle) << x.name;
    EXPECT_EQ(x.end_cycle, y.end_cycle) << x.name;
    ExpectSameCounters(x.delta, y.delta);
  }
}

TEST(TraceCollector, GatedByProcessSwitch) {
  ASSERT_FALSE(CollectEnabled());  // tests must not leak the switch
  workloads::RunConfig c = TracedConfig();
  workloads::RunResult r;  // contents irrelevant for gating
  CollectRun("Wgate", c, r);
  EXPECT_TRUE(CollectedRuns().empty());  // disabled => dropped
  SetCollectEnabled(true);
  CollectRun("Wgate", c, r);
  ASSERT_EQ(CollectedRuns().size(), 1u);
  EXPECT_EQ(CollectedRuns()[0].workload, "Wgate");
  SetCollectEnabled(false);
  ClearCollectedRuns();
  EXPECT_TRUE(CollectedRuns().empty());
}

// ---------------------------------------------------------------------------
// JSON emitters, on a hand-built run so every byte is pinned down.

CollectedRun GoldenRun() {
  CollectedRun run;
  run.workload = "Wx";
  run.config.threads = 2;
  run.config.seed = 7;

  workloads::RunResult& r = run.result;
  r.cycles = 100;
  r.aux_cycles = 5;
  r.checksum = 42;
  r.requested_peak = 1000;
  r.resident_peak = 2000;
  r.report.threads.cycles = 100;
  r.report.threads.mem_accesses = 4;
  r.report.threads.local_dram = 3;
  r.report.threads.remote_dram = 1;  // => lar 0.75

  ThreadSummary t;
  t.thread_id = 0;
  t.name = "w0";
  t.node = 0;
  t.counters = r.report.threads;
  r.trace.threads.push_back(t);

  SpanRecord root;
  root.name = "worker";
  root.thread_id = 0;
  root.node = 0;
  root.depth = 0;
  root.parent = -1;
  root.start_cycle = 0;
  root.end_cycle = 100;
  root.delta = r.report.threads;
  r.trace.spans.push_back(root);

  SpanRecord child;
  child.name = "build";
  child.thread_id = 0;
  child.node = 0;
  child.depth = 1;
  child.parent = 0;
  child.start_cycle = 10;
  child.end_cycle = 60;
  child.delta.mem_accesses = 2;
  r.trace.spans.push_back(child);
  return run;
}

// The run-total / thread / root-span counters object of GoldenRun.
const char kC1[] =
    "{\"cycles\":100,\"thread_migrations\":0,\"mem_accesses\":4,"
    "\"private_hits\":0,\"llc_hits\":0,\"llc_misses\":0,\"local_dram\":3,"
    "\"remote_dram\":1,\"tlb_hits\":0,\"tlb_misses\":0,\"hinting_faults\":0,"
    "\"alloc_calls\":0,\"free_calls\":0,\"alloc_cycles\":0,"
    "\"lock_wait_cycles\":0,\"queue_delay_cycles\":0}";
// The child span's counters object.
const char kC2[] =
    "{\"cycles\":0,\"thread_migrations\":0,\"mem_accesses\":2,"
    "\"private_hits\":0,\"llc_hits\":0,\"llc_misses\":0,\"local_dram\":0,"
    "\"remote_dram\":0,\"tlb_hits\":0,\"tlb_misses\":0,\"hinting_faults\":0,"
    "\"alloc_calls\":0,\"free_calls\":0,\"alloc_cycles\":0,"
    "\"lock_wait_cycles\":0,\"queue_delay_cycles\":0}";

// BenchJson("golden", {GoldenRun()}): every byte of a run with no sections.
std::string GoldenDoc() {
  return std::string() +
      "{\"schema_version\":4,\n"
      " \"bench\":\"golden\",\n"
      " \"runs\":[\n"
      "    {\"id\":0,\"workload\":\"Wx\",\n"
      "     \"config\":{\"machine\":\"A\",\"threads\":2,\"affinity\":\"None\","
      "\"policy\":\"FirstTouch\",\"preferred_node\":0,"
      "\"allocator\":\"ptmalloc\",\"autonuma\":true,\"thp\":true,"
      "\"dataset\":\"MovingCluster\",\"num_records\":8000000,"
      "\"cardinality\":80000,\"build_rows\":250000,\"probe_rows\":4000000,"
      "\"seed\":7,\"run_index\":0,\"quantum\":4000,\"scalar_mem_path\":false,"
      "\"deadline_cycles\":0,\"placement\":false,\"storage\":false},\n"
      "     \"status\":\"OK\",\n"
      "     \"cycles\":100,\"aux_cycles\":5,\"checksum\":42,\"lar\":0.75,\n"
      "     \"requested_peak\":1000,\"resident_peak\":2000,\"races\":0,\n"
      "     \"counters\":" + kC1 + ",\n"
      "     \"system\":{\"page_migrations\":0,\"thp_collapses\":0,"
      "\"thp_splits\":0,\"pages_mapped\":0,\"bytes_mapped\":0,"
      "\"bytes_mapped_peak\":0,\"balancer_migrations\":0,\n"
      "      \"pages_replicated\":0,\"replica_reads\":0,"
      "\"replica_writes\":0,\"replica_invalidations\":0,"
      "\"replica_drops\":0,\"replica_bytes_peak\":0,"
      "\"migrations_vetoed\":0,\"capacity_bytes_total\":0},\n"
      "     \"degradation\":{\"pages_spilled\":0,\"oom_last_resort_pages\":0,"
      "\"offline_redirects\":0,\"all_offline_binds\":0,"
      "\"alloc_failures_injected\":0,"
      "\"migration_failures_injected\":0},\n"
      "     \"threads\":[\n"
      "      {\"id\":0,\"name\":\"w0\",\"node\":0,\"counters\":" + kC1 +
      "}],\n"
      "     \"nodes\":[\n"
      "      {\"node\":0,\"counters\":" + kC1 + "}],\n"
      "     \"spans\":[\n"
      "      {\"name\":\"worker\",\"thread\":0,\"node\":0,\"depth\":0,"
      "\"parent\":-1,\"start\":0,\"end\":100,\"counters\":" + kC1 + "},\n"
      "      {\"name\":\"build\",\"thread\":0,\"node\":0,\"depth\":1,"
      "\"parent\":0,\"start\":10,\"end\":60,\"counters\":" + kC2 +
      "}]}]}\n";
}

TEST(TraceJson, BenchJsonGolden) {
  EXPECT_EQ(BenchJson("golden", {GoldenRun()}), GoldenDoc());
}

TEST(TraceJson, EmptyRunListStillWellFormed) {
  EXPECT_EQ(BenchJson("empty", {}),
            "{\"schema_version\":4,\n \"bench\":\"empty\",\n \"runs\":[]}\n");
}

TEST(TraceJson, StringsAreEscaped) {
  CollectedRun run = GoldenRun();
  run.workload = "W\"x\\y\nz";
  std::string doc = BenchJson("g", {run});
  EXPECT_NE(doc.find("\"workload\":\"W\\\"x\\\\y\\nz\""), std::string::npos);
}

// Per-run sections follow "spans" verbatim, in list order; config.storage
// is true exactly when a "storage" section is attached. Every other byte is
// GoldenDoc's.
TEST(TraceJson, SectionsEmittedInListOrder) {
  const Section serving{"serving", "{\"offered\":10,\"completed\":9}"};
  const Section storage{"storage", "{\"enabled\":true}"};
  const std::string serving_tail =
      ",\n     \"serving\":{\"offered\":10,\"completed\":9}";
  const std::string storage_tail = ",\n     \"storage\":{\"enabled\":true}";
  struct Case {
    const char* name;
    std::vector<Section> sections;
    bool storage_flag;
    std::string tail;  // bytes between "spans" and the run's closing brace
  };
  const Case cases[] = {
      {"none", {}, false, ""},
      {"serving", {serving}, false, serving_tail},
      {"storage", {storage}, true, storage_tail},
      {"serving,storage", {serving, storage}, true,
       serving_tail + storage_tail},
      {"storage,serving", {storage, serving}, true,
       storage_tail + serving_tail},
  };
  const std::string flag_off = "\"storage\":false}";
  const std::string run_end = "}]}\n";  // run, "runs" and document close
  for (const Case& tc : cases) {
    std::string expected = GoldenDoc();
    if (tc.storage_flag) {
      expected.replace(expected.find(flag_off), flag_off.size(),
                       "\"storage\":true}");
    }
    expected.insert(expected.size() - run_end.size(), tc.tail);

    CollectedRun run = GoldenRun();
    run.sections = tc.sections;
    EXPECT_EQ(BenchJson("golden", {run}), expected) << tc.name;
  }
}

TEST(TraceJson, ChromeTraceGolden) {
  std::string expected = std::string() +
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"run0 Wx machine=A\"}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"w0\"}},\n"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"worker\",\"ts\":0,"
      "\"dur\":100,\"args\":{\"node\":0,\"mem_accesses\":4,\"llc_misses\":0,"
      "\"local_dram\":3,\"remote_dram\":1,\"tlb_misses\":0,\"alloc_cycles\":0,"
      "\"lock_wait_cycles\":0}},\n"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"build\",\"ts\":10,"
      "\"dur\":50,\"args\":{\"node\":0,\"mem_accesses\":2,\"llc_misses\":0,"
      "\"local_dram\":0,\"remote_dram\":0,\"tlb_misses\":0,\"alloc_cycles\":0,"
      "\"lock_wait_cycles\":0}}]}\n";
  EXPECT_EQ(ChromeTraceJson({GoldenRun()}), expected);
}

TEST(TraceJson, SameSeedSameBytesOnBothMemPaths) {
  // The determinism contract behind scripts/check.sh's merged-JSON diff:
  // identical configs serialize to identical bytes, run to run, on the
  // batched span path and on the scalar reference path alike.
  for (bool scalar : {false, true}) {
    workloads::RunConfig c = TracedConfig();
    c.scalar_mem_path = scalar;
    std::string a = BenchJson(
        "b", {CollectedRun{"W3", c, workloads::RunW3HashJoin(c), {}}});
    std::string b = BenchJson(
        "b", {CollectedRun{"W3", c, workloads::RunW3HashJoin(c), {}}});
    EXPECT_EQ(a, b) << "scalar=" << scalar;
  }
}

}  // namespace
}  // namespace trace
}  // namespace numalab
