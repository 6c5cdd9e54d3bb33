// End-to-end smoke tests: the W1-W3 workloads run to completion under a few
// representative configurations, produce correct query answers (checksums
// match a host-side reference), and the simulation is deterministic. Also
// pins the run-scaffold helpers the workloads share (WorkerSlice, SimVec).

#include <cstring>
#include <functional>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/datagen/datagen.h"
#include "src/workloads/sim_context.h"
#include "src/workloads/workloads.h"

namespace numalab {
namespace workloads {
namespace {

RunConfig SmallConfig() {
  RunConfig c;
  c.machine = "A";
  c.threads = 8;
  c.affinity = osmodel::Affinity::kSparse;
  c.policy = mem::MemPolicy::kInterleave;
  c.allocator = "tbbmalloc";
  c.autonuma = false;
  c.thp = false;
  c.num_records = 50'000;
  c.cardinality = 512;
  c.build_rows = 10'000;
  c.probe_rows = 80'000;
  return c;
}

uint64_t ReferenceW1(const RunConfig& c) {
  auto input = datagen::MakeAggregationInput(c.dataset, c.num_records,
                                             c.cardinality, c.seed);
  std::map<uint64_t, std::vector<int64_t>> groups;
  for (const auto& r : input) groups[r.key].push_back(r.val);
  uint64_t sum = 0;
  for (auto& [k, v] : groups) {
    size_t mid = (v.size() - 1) / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
    sum += static_cast<uint64_t>(v[static_cast<long>(mid)]);
  }
  return sum;
}

TEST(W1Smoke, MatchesReferenceMedianSum) {
  RunConfig c = SmallConfig();
  RunResult r = RunW1HolisticAggregation(c);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_EQ(r.checksum, ReferenceW1(c));
}

TEST(W1Smoke, DeterministicAcrossRuns) {
  RunConfig c = SmallConfig();
  RunResult a = RunW1HolisticAggregation(c);
  RunResult b = RunW1HolisticAggregation(c);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.report.threads.mem_accesses, b.report.threads.mem_accesses);
  EXPECT_EQ(a.report.threads.llc_misses, b.report.threads.llc_misses);
}

TEST(W1Smoke, RunIndexPerturbsUnpinnedRuns) {
  RunConfig c = SmallConfig();
  c.affinity = osmodel::Affinity::kNone;
  c.run_index = 0;
  RunResult a = RunW1HolisticAggregation(c);
  c.run_index = 1;
  RunResult b = RunW1HolisticAggregation(c);
  EXPECT_NE(a.cycles, b.cycles);  // OS scheduler noise differs by run
}

TEST(W2Smoke, CountsEveryRecordOnce) {
  RunConfig c = SmallConfig();
  c.dataset = Dataset::kZipf;
  RunResult r = RunW2DistributiveAggregation(c);
  // Sum of COUNT over all groups == number of input records.
  EXPECT_EQ(r.checksum, c.num_records);
}

TEST(W3Smoke, EveryProbeMatches) {
  RunConfig c = SmallConfig();
  RunResult r = RunW3HashJoin(c);
  // Every probe key is drawn from the build keys, so matches == probe rows.
  EXPECT_EQ(r.checksum, c.probe_rows);
}

// Pins each workload's exact simulated result on SmallConfig, so a rewrite
// of the workload or hash-table code that moves one charge fails here, not
// only in the minutes-long bench golden.
TEST(WorkloadPins, AggregationAndHashJoinArePinned) {
  struct Pin {
    const char* workload;
    RunResult (*run)(const RunConfig&);
    uint64_t cycles;
    uint64_t checksum;
    uint64_t mem_accesses;
    uint64_t alloc_calls;
  };
  const Pin kPins[] = {
      {"W1", RunW1HolisticAggregation, 999'519, 265'984'549, 206'513, 3'000},
      {"W2", RunW2DistributiveAggregation, 678'102, 50'000, 202'046, 511},
      {"W3", RunW3HashJoin, 3'634'059, 80'000, 370'080, 10'048},
  };
  for (const Pin& pin : kPins) {
    RunResult r = pin.run(SmallConfig());
    EXPECT_EQ(r.cycles, pin.cycles) << pin.workload;
    EXPECT_EQ(r.aux_cycles, 0u) << pin.workload;
    EXPECT_EQ(r.checksum, pin.checksum) << pin.workload;
    EXPECT_EQ(r.report.threads.mem_accesses, pin.mem_accesses)
        << pin.workload;
    EXPECT_EQ(r.report.threads.alloc_calls, pin.alloc_calls)
        << pin.workload;
  }
}

TEST(W3Smoke, WorksOnAllMachines) {
  for (const char* m : {"A", "B", "C"}) {
    RunConfig c = SmallConfig();
    c.machine = m;
    c.build_rows = 2'000;
    c.probe_rows = 16'000;
    RunResult r = RunW3HashJoin(c);
    EXPECT_EQ(r.checksum, c.probe_rows) << m;
  }
}

TEST(W1Smoke, AllAllocatorsProduceCorrectResults) {
  RunConfig c = SmallConfig();
  c.num_records = 20'000;
  c.cardinality = 256;
  uint64_t expect = ReferenceW1(c);
  for (const char* a :
       {"ptmalloc", "jemalloc", "tcmalloc", "hoard", "tbbmalloc",
        "supermalloc", "mcmalloc"}) {
    c.allocator = a;
    RunResult r = RunW1HolisticAggregation(c);
    EXPECT_EQ(r.checksum, expect) << a;
  }
}

TEST(W1Smoke, AllPoliciesProduceCorrectResults) {
  RunConfig c = SmallConfig();
  c.num_records = 20'000;
  c.cardinality = 256;
  uint64_t expect = ReferenceW1(c);
  for (auto p : {mem::MemPolicy::kFirstTouch, mem::MemPolicy::kInterleave,
                 mem::MemPolicy::kLocalAlloc, mem::MemPolicy::kPreferred}) {
    c.policy = p;
    RunResult r = RunW1HolisticAggregation(c);
    EXPECT_EQ(r.checksum, expect) << static_cast<int>(p);
  }
}

TEST(W1Smoke, OsDefaultsRunToCompletion) {
  RunConfig c = SmallConfig();
  c.affinity = osmodel::Affinity::kNone;
  c.autonuma = true;
  c.thp = true;
  c.allocator = "ptmalloc";
  c.policy = mem::MemPolicy::kFirstTouch;
  RunResult r = RunW1HolisticAggregation(c);
  EXPECT_EQ(r.checksum, ReferenceW1(c));
  EXPECT_GT(r.report.threads.thread_migrations, 0u);
}

// --- Run scaffold: WorkerSlice. ---

TEST(WorkerSlice, TilesTheRangeWithTheRemainderOnTheLastPart) {
  for (uint64_t n : {0, 1, 7, 100, 1003}) {
    for (int parts : {1, 3, 8}) {
      uint64_t next = 0;
      for (int me = 0; me < parts; ++me) {
        Slice s = WorkerSlice(n, parts, me);
        EXPECT_EQ(s.lo, next) << n << "/" << parts << " part " << me;
        if (me < parts - 1) {
          EXPECT_EQ(s.hi - s.lo, n / parts);
        }
        next = s.hi;
      }
      EXPECT_EQ(next, n) << n << "/" << parts;
    }
  }
  Slice last = WorkerSlice(10, 3, 2);
  EXPECT_EQ(last.lo, 6u);
  EXPECT_EQ(last.hi, 10u);
}

TEST(WorkerSlice, FewerItemsThanPartsLeavesAllButTheLastEmpty) {
  for (int me = 0; me < 7; ++me) {
    Slice s = WorkerSlice(3, 8, me);
    EXPECT_EQ(s.lo, 0u);
    EXPECT_EQ(s.hi, 0u);
  }
  Slice last = WorkerSlice(3, 8, 7);
  EXPECT_EQ(last.lo, 0u);
  EXPECT_EQ(last.hi, 3u);
}

TEST(WorkerSlice, W4ProberFormSkipsTheBuilder) {
  // W4 runs a builder (worker 0) plus probers 1..num_workers-1, which split
  // the probe relation as WorkerSlice(n, num_workers - 1, worker_index - 1).
  const int num_workers = 5;
  const uint64_t n = 1001;
  uint64_t next = 0;
  for (int w = 1; w < num_workers; ++w) {
    Slice s = WorkerSlice(n, num_workers - 1, w - 1);
    EXPECT_EQ(s.lo, next);
    EXPECT_EQ(s.hi, w == num_workers - 1 ? n : next + 250);
    next = s.hi;
  }
  EXPECT_EQ(next, n);
}

// --- Run scaffold: SimVec growth charges. ---

/// Clock, counters and final contents of a one-worker run.
struct AppendTrace {
  uint64_t clock = 0;
  perf::ThreadCounters counters;
  std::vector<int64_t> contents;
};

using AppendBody = std::function<std::vector<int64_t>(Env&)>;

sim::Task RecordAppends(Env& env, const AppendBody& body, AppendTrace* out) {
  out->contents = body(env);
  out->clock = env.self->clock;
  out->counters = env.self->counters;
  co_return;
}

/// Runs `body` as the only worker of a fresh one-thread run and records
/// what it left behind.
AppendTrace RunOneWorker(const AppendBody& body) {
  RunConfig c;
  c.machine = "A";
  c.threads = 1;
  c.affinity = osmodel::Affinity::kSparse;
  c.autonuma = false;
  c.thp = false;
  SimContext ctx(c);
  AppendTrace out;
  ctx.SpawnWorkers(
      [&](Env& env) { return RecordAppends(env, body, &out); });
  RunResult r;
  ctx.Finish(&r);
  return out;
}

void ExpectSameCharges(const AppendTrace& a, const AppendTrace& b) {
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.counters.mem_accesses, b.counters.mem_accesses);
  EXPECT_EQ(a.counters.alloc_calls, b.counters.alloc_calls);
  EXPECT_EQ(a.counters.free_calls, b.counters.free_calls);
  EXPECT_EQ(0, std::memcmp(&a.counters, &b.counters, sizeof(a.counters)));
  EXPECT_EQ(a.contents, b.contents);
}

TEST(SimVec, W1AppendAcrossAGrowthChargesTheHandWrittenSequence) {
  const int64_t xs[3] = {11, 22, 33};
  AppendTrace vec = RunOneWorker([&](Env& env) {
    SimVec<int64_t, uint32_t> v;
    for (int64_t x : xs) EXPECT_TRUE(v.Append(env, &x, 1, /*first_cap=*/2));
    EXPECT_EQ(v.cap, 4u);
    return std::vector<int64_t>(v.data, v.data + v.size);
  });
  AppendTrace hand = RunOneWorker([&](Env& env) {
    auto* d = static_cast<int64_t*>(env.TryAlloc(2 * sizeof(int64_t)));
    d[0] = xs[0];
    env.Write(&d[0], sizeof(int64_t));
    d[1] = xs[1];
    env.Write(&d[1], sizeof(int64_t));
    auto* nd = static_cast<int64_t*>(env.TryAlloc(4 * sizeof(int64_t)));
    env.ReadSpan(d, 2 * sizeof(int64_t));
    env.WriteSpan(nd, 2 * sizeof(int64_t));
    std::memcpy(nd, d, 2 * sizeof(int64_t));
    env.Free(d);
    nd[2] = xs[2];
    env.Write(&nd[2], sizeof(int64_t));
    return std::vector<int64_t>(nd, nd + 3);
  });
  EXPECT_GT(vec.counters.mem_accesses, 0u);
  EXPECT_EQ(vec.counters.alloc_calls, 2u);
  EXPECT_EQ(vec.counters.free_calls, 1u);
  ExpectSameCharges(vec, hand);
}

TEST(SimVec, JoinRowAppendAcrossAGrowthChargesTheHandWrittenSequence) {
  // W3/W4 emit 3-word rows; first_cap 4 forces a growth on the second row.
  const uint64_t rows[2][3] = {{1, 2, 3}, {4, 5, 6}};
  auto as_i64 = [](const uint64_t* p, uint64_t n) {
    return std::vector<int64_t>(p, p + n);
  };
  AppendTrace vec = RunOneWorker([&](Env& env) {
    SimVec<uint64_t> v;
    for (const auto& row : rows) {
      EXPECT_TRUE(v.Append(env, row, 3, /*first_cap=*/4));
    }
    EXPECT_EQ(v.cap, 8u);
    return as_i64(v.data, v.size);
  });
  AppendTrace hand = RunOneWorker([&](Env& env) {
    auto* d = static_cast<uint64_t*>(env.TryAlloc(4 * sizeof(uint64_t)));
    std::memcpy(d, rows[0], 3 * sizeof(uint64_t));
    env.Write(d, 3 * sizeof(uint64_t));
    auto* nd = static_cast<uint64_t*>(env.TryAlloc(8 * sizeof(uint64_t)));
    env.ReadSpan(d, 3 * sizeof(uint64_t));
    env.WriteSpan(nd, 3 * sizeof(uint64_t));
    std::memcpy(nd, d, 3 * sizeof(uint64_t));
    env.Free(d);
    std::memcpy(nd + 3, rows[1], 3 * sizeof(uint64_t));
    env.Write(nd + 3, 3 * sizeof(uint64_t));
    return as_i64(nd, 6);
  });
  ExpectSameCharges(vec, hand);
}

// --- Run scaffold: bulk idle polling. ---

/// What a poll loop leaves behind: clock, charged cycles, and how many
/// times the engine resumed it.
struct PollTrace {
  uint64_t clock = 0;
  uint64_t cycles = 0;
  int resumes = 0;
};

/// Charges `pre`, then polls `poll` cycles at a time until an event sets
/// `*woken` or the clock reaches the window end (clock + `window`; UINT64_MAX
/// for none) — the shape of ServeWorker's idle and batch-window loops.
/// `bulk` polls through Env::IdlePoll, otherwise through the hand-written
/// Compute + Checkpoint loop it replaces.
sim::Task PollLoop(Env& env, const bool* woken, uint64_t pre, uint64_t poll,
                   uint64_t window, bool bulk, PollTrace* out) {
  env.Compute(pre);
  uint64_t until =
      window == UINT64_MAX ? UINT64_MAX : env.self->clock + window;
  uint64_t quantum_end = env.self->run_until;
  ++out->resumes;
  while (!*woken && env.self->clock < until) {
    if (bulk) {
      env.IdlePoll(poll, until);
    } else {
      env.Compute(poll);
    }
    co_await env.Checkpoint();
    if (env.self->run_until != quantum_end) {  // set afresh on each resume
      quantum_end = env.self->run_until;
      ++out->resumes;
    }
  }
  out->clock = env.self->clock;
  out->cycles = env.self->counters.cycles;
}

/// One poller at oversubscription factor `scale` on a bare engine (4000-
/// cycle quantum) with its wake-up event at `wake_at`.
PollTrace RunPollLoop(bool bulk, double scale, uint64_t pre, uint64_t poll,
                      uint64_t window, uint64_t wake_at) {
  sim::Engine engine(/*quantum=*/4000);
  bool woken = false;
  engine.ScheduleEvent(wake_at, [&woken] { woken = true; });
  Env env;
  env.engine = &engine;
  PollTrace out;
  engine.Spawn("poller", 0, [&](sim::VThread* vt) {
    vt->cycle_scale = scale;
    env.self = vt;
    return PollLoop(env, &woken, pre, poll, window, bulk, &out);
  });
  engine.Run();
  return out;
}

TEST(IdlePoll, ChargesWhatTheComputeCheckpointLoopCharges) {
  struct Case {
    const char* name;
    double scale;
    uint64_t pre, poll, window, wake_at;
  } cases[] = {
      // Idle: until = UINT64_MAX, so every resume polls to its quantum end.
      {"idle", 1.5, 0, 400, UINT64_MAX, 50'000},
      // The quantum is a whole number of polls: no overshoot.
      {"idle-exact-multiple", 1.0, 0, 400, UINT64_MAX, 50'000},
      // Scaled(333) truncates (432.9 -> 432) once per poll.
      {"idle-truncating", 1.3, 0, 333, UINT64_MAX, 50'000},
      // Batch window ending below the quantum end, then above it.
      {"window-below-quantum", 1.5, 0, 120, 1'000, UINT64_MAX},
      {"window-above-quantum", 1.5, 0, 120, 10'000, UINT64_MAX},
      {"window-exact-multiple", 1.0, 0, 120, 1'200, UINT64_MAX},
      // Clock already past run_until: exactly one poll, then suspend.
      {"past-quantum-end", 1.5, 5'000, 400, UINT64_MAX, 30'000},
      {"past-quantum-end-window", 1.5, 5'000, 120, 2'000, UINT64_MAX},
  };
  for (const Case& c : cases) {
    PollTrace hand =
        RunPollLoop(false, c.scale, c.pre, c.poll, c.window, c.wake_at);
    PollTrace bulk =
        RunPollLoop(true, c.scale, c.pre, c.poll, c.window, c.wake_at);
    EXPECT_GT(hand.clock, c.pre) << c.name;
    EXPECT_EQ(bulk.clock, hand.clock) << c.name;
    EXPECT_EQ(bulk.cycles, hand.cycles) << c.name;
    EXPECT_EQ(bulk.resumes, hand.resumes) << c.name;
  }
  // The idle cases span many quanta, so the resume count is a real check.
  EXPECT_GT(RunPollLoop(false, 1.5, 0, 400, UINT64_MAX, 50'000).resumes, 5);
}

}  // namespace
}  // namespace workloads
}  // namespace numalab
