// perfbench — numalab's benchmark runner.
//
// Runs one workload of the benchmark in one host process and prints one
// JSON line: host timings, the simulated outcome, the per-layer numbers of a
// traced run, and the result of every correctness oracle. run.py builds this
// binary, calls it and turns its line into the benchmark's result; see
// README.md for the workloads, the metrics and the layer each one watches.
//
//   perfbench --workload=w1_agg_outofbox --seed=1 --seconds=15 --trace=0
//             [--size=full|small] [--mode=run|setup] [--trace-out=PATH]
//
// It calls only libnumalab's public entry points, so every layer is
// measured from outside. The simulator is single-threaded (virtual threads
// are coroutines) and perfbench runs one simulation at a time.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory_resource>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/alloc/allocator.h"
#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/index/index.h"
#include "src/serve/serve.h"
#include "src/workloads/sim_context.h"
#include "src/workloads/workloads.h"

namespace {

using numalab::perf::ThreadCounters;
using numalab::serve::ServeConfig;
using numalab::serve::ServeResult;
using numalab::serve::ServingStats;
using numalab::storage::StorageStats;
using numalab::workloads::Env;
using numalab::workloads::RunConfig;
using numalab::workloads::RunResult;
using numalab::workloads::SimContext;
namespace sim = numalab::sim;
namespace datagen = numalab::datagen;

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Odd multiplier: i * kScatter mod 2^k visits every slot once per period,
// each far from its predecessor.
constexpr uint64_t kScatter = 0x9e3779b97f4a7c15ULL | 1;

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  bool setup_only = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=NAME --seed=N "
               "--seconds=S --trace=0|1 [--size=full|small] "
               "[--mode=run|setup] [--trace-out=PATH]\n",
               msg.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Usage(arg + ": expected --flag=value");
    }
    std::string key = arg.substr(2, eq - 2);
    std::string val = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') Usage(arg + ": not an integer");
    } else if (key == "seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || a.seconds < 0) {
        Usage(arg + ": not a duration");
      }
    } else if (key == "trace") {
      if (val != "0" && val != "1") Usage(arg + ": must be 0 or 1");
      a.trace = val == "1";
    } else if (key == "size") {
      if (val != "full" && val != "small") Usage(arg + ": full or small");
      a.small = val == "small";
    } else if (key == "mode") {
      if (val != "run" && val != "setup") Usage(arg + ": run or setup");
      a.setup_only = val == "setup";
    } else if (key == "trace-out") {
      a.trace_out = val;
    } else {
      Usage(arg + ": unrecognized flag");
    }
  }
  if (!have_workload) Usage("--workload is required");
  return a;
}

// ---------------------------------------------------------------------------
// Host-time spans perfbench records around every layer call it makes.

class HostTrace {
 public:
  explicit HostTrace(Clock::time_point origin) : origin_(origin) {}

  void Begin(const std::string& name) {
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, Since(origin_), -1});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void End() {
    spans_[static_cast<size_t>(open_.back())].end_s = Since(origin_);
    open_.pop_back();
  }

  /// Chrome trace events ("X" spans on one track), plus each span's self
  /// time: its duration minus what its child spans cover.
  std::string ChromeJson() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::string out = "{\"traceEvents\":[";
    char buf[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d,"
                    "\"self_s\":%.6f}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.start_s * 1e6,
                    (s.end_s - s.start_s) * 1e6, s.parent,
                    s.end_s - s.start_s - child[i]);
      out += buf;
    }
    out += "]}\n";
    return out;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedHostSpan {
 public:
  ScopedHostSpan(HostTrace* t, const std::string& name) : t_(t) {
    t_->Begin(name);
  }
  ~ScopedHostSpan() { t_->End(); }
  ScopedHostSpan(const ScopedHostSpan&) = delete;
  ScopedHostSpan& operator=(const ScopedHostSpan&) = delete;

 private:
  HostTrace* t_;
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kW1, kW4, kServe };

struct Workload {
  Kind kind;
  RunConfig rc;
  ServeConfig sc;  // kServe only
};

// The paper's out-of-the-box configuration: no affinity, First Touch,
// ptmalloc, AutoNUMA and THP on.
RunConfig DefaultBase(int threads) {
  RunConfig c;
  c.machine = "A";
  c.threads = threads;
  c.affinity = numalab::osmodel::Affinity::kNone;
  c.policy = numalab::mem::MemPolicy::kFirstTouch;
  c.allocator = "ptmalloc";
  c.autonuma = true;
  c.thp = true;
  return c;
}

// The paper's tuned OS configuration: Sparse affinity, AutoNUMA and THP off.
RunConfig TunedBase(int threads) {
  RunConfig c = DefaultBase(threads);
  c.affinity = numalab::osmodel::Affinity::kSparse;
  c.autonuma = false;
  c.thp = false;
  return c;
}

bool MakeWorkload(const std::string& name, uint64_t seed, bool small,
                  Workload* w) {
  if (name == "w1_agg_outofbox") {
    w->kind = Kind::kW1;
    w->rc = DefaultBase(16);
    w->rc.dataset = numalab::workloads::Dataset::kMovingCluster;
    w->rc.num_records = small ? 200'000 : 2'000'000;
    w->rc.cardinality = small ? 20'000 : 200'000;
  } else if (name == "w4_art_tuned") {
    w->kind = Kind::kW4;
    w->rc = TunedBase(16);
    w->rc.policy = numalab::mem::MemPolicy::kInterleave;
    w->rc.build_rows = small ? 10'000 : 100'000;
    w->rc.probe_rows = small ? 160'000 : 1'600'000;
  } else if (name == "serve_storage_rw") {
    w->kind = Kind::kServe;
    w->rc = TunedBase(8);
    ServeConfig& sc = w->sc;
    sc.arrival = numalab::serve::Arrival::kPoisson;
    sc.requests = small ? 50'000 : 1'000'000;
    sc.mean_gap_cycles = 2'000;
    sc.mix_point = 0.45;
    sc.mix_range = 0.10;
    sc.mix_probe = 0;
    sc.mix_upsert = 0.45;
    sc.mix_tpch = 0;
    sc.kv_keys = 1 << 15;
    sc.probe_build_rows = 1024;
    sc.queue_cap = 1 << 16;
    sc.max_retries = 50;
    sc.storage.enabled = true;
    sc.storage.frames_per_shard = 6;
  } else {
    return false;
  }
  w->rc.seed = seed;
  return true;
}

/// One simulated run's outcome. `sim` lists every exact simulated value the
/// run produced, in a fixed order: two runs of one seed and draw must agree
/// on all of them.
struct Outcome {
  RunResult run;
  ServingStats serving;
  StorageStats storage;
  std::vector<uint64_t> sim;
  double host_s = 0;
};

void AppendSim(const RunResult& r, std::vector<uint64_t>* v) {
  const ThreadCounters& t = r.report.threads;
  const numalab::perf::SystemCounters& s = r.report.system;
  v->insert(v->end(),
            {r.cycles, r.aux_cycles, r.checksum, r.requested_peak,
             r.resident_peak, t.cycles, t.thread_migrations, t.mem_accesses,
             t.private_hits, t.llc_hits, t.llc_misses, t.local_dram,
             t.remote_dram, t.tlb_hits, t.tlb_misses, t.hinting_faults,
             t.alloc_calls, t.free_calls, t.alloc_cycles, t.lock_wait_cycles,
             t.queue_delay_cycles, s.page_migrations, s.thp_collapses,
             s.thp_splits, s.pages_mapped, s.bytes_mapped, s.bytes_mapped_peak,
             s.balancer_migrations, s.pages_replicated, s.replica_reads,
             s.replica_writes, s.replica_invalidations, s.replica_drops,
             s.migrations_vetoed, s.pages_spilled, s.oom_last_resort_pages,
             s.offline_redirects, s.alloc_failures_injected,
             s.migration_failures_injected});
}

void AppendSim(const ServingStats& st, const StorageStats& sg,
               std::vector<uint64_t>* v) {
  v->insert(v->end(),
            {st.offered, st.admitted, st.completed, st.rejected, st.retries,
             st.dropped, st.batches, st.batched_requests, st.max_batch,
             st.max_queue_depth, st.first_arrival_cycle,
             st.last_completion_cycle, st.makespan_cycles, st.p50, st.p95,
             st.p99, st.max, st.checksum, sg.lookups, sg.hits, sg.misses,
             sg.evictions, sg.writebacks, sg.upserts, sg.gets, sg.scan_rows,
             sg.wal_records, sg.wal_bytes, sg.wal_flushes, sg.checkpoints,
             sg.checkpoint_pages, sg.wal_truncated_records, sg.io_reads,
             sg.io_writes, sg.crashes, sg.table_checksum});
}

/// One simulated run of `w` with OS-scheduler draw `draw` (RunConfig::
/// run_index, which perturbs the scheduler's randomness and the serving
/// stream but not the generated input).
Outcome RunOnce(const Workload& w, int draw, bool traced) {
  RunConfig rc = w.rc;
  rc.run_index = draw;
  rc.trace = traced;
  Outcome o;
  auto t0 = Clock::now();
  switch (w.kind) {
    case Kind::kW1:
      o.run = numalab::workloads::RunW1HolisticAggregation(rc);
      break;
    case Kind::kW4:
      o.run = numalab::workloads::RunW4IndexJoin(rc, "art");
      break;
    case Kind::kServe: {
      ServeResult r = numalab::serve::RunServing(rc, w.sc);
      o.run = std::move(r.run);
      o.serving = std::move(r.stats);
      o.storage = std::move(r.storage);
      break;
    }
  }
  o.host_s = Since(t0);
  AppendSim(o.run, &o.sim);
  if (w.kind == Kind::kServe) AppendSim(o.serving, o.storage, &o.sim);
  return o;
}

/// The W1 oracle: the sum over groups of the lower median, computed on the
/// host from the same generated input (MEDIAN picks element (n-1)/2).
uint64_t W1Reference(const RunConfig& rc) {
  std::vector<datagen::Record> in = datagen::MakeAggregationInput(
      rc.dataset, rc.num_records, rc.cardinality, rc.seed);
  std::sort(in.begin(), in.end(),
            [](const datagen::Record& a, const datagen::Record& b) {
              return a.key != b.key ? a.key < b.key : a.val < b.val;
            });
  uint64_t sum = 0;
  for (size_t lo = 0; lo < in.size();) {
    size_t hi = lo;
    while (hi < in.size() && in[hi].key == in[lo].key) ++hi;
    sum += static_cast<uint64_t>(in[lo + (hi - lo - 1) / 2].val);
    lo = hi;
  }
  return sum;
}

/// Checks one run against the oracles; appends a message per violation.
void CheckRun(const Workload& w, uint64_t w1_reference,
              const std::vector<uint64_t>& expect_sim, const Outcome& o,
              const char* label, std::vector<std::string>* errors) {
  auto fail = [&](const std::string& what) {
    errors->push_back(std::string(label) + ": " + what);
  };
  if (!o.run.status.ok()) fail("status " + o.run.status.ToString());
  switch (w.kind) {
    case Kind::kW1:
      if (o.run.checksum != w1_reference) {
        fail("checksum " + std::to_string(o.run.checksum) +
             " != host median sum " + std::to_string(w1_reference));
      }
      break;
    case Kind::kW4:
      if (o.run.checksum != w.rc.probe_rows) {
        fail("matches " + std::to_string(o.run.checksum) +
             " != probe rows " + std::to_string(w.rc.probe_rows));
      }
      break;
    case Kind::kServe: {
      const ServingStats& st = o.serving;
      const StorageStats& sg = o.storage;
      if (st.offered != w.sc.requests) fail("offered != requests");
      if (st.admitted + st.dropped != st.offered) {
        fail("admitted + dropped != offered");
      }
      if (st.completed != st.admitted) fail("completed != admitted");
      if (st.dropped != 0) fail(std::to_string(st.dropped) + " dropped");
      if (sg.hits + sg.misses != sg.lookups) fail("hits + misses != lookups");
      break;
    }
  }
  if (!expect_sim.empty() && o.sim != expect_sim) {
    fail("simulated results differ from an earlier run of this draw");
  }
}

/// OS-scheduler draws per seed. The out-of-the-box W1 configuration leaves
/// thread placement to the simulated scheduler, whose draws move makespan
/// and LAR by about +-10%; the median over eight draws is steady.
constexpr int kDraws = 8;

/// Rounds of draw-0 runs in traced mode (untraced, traced, storage off);
/// even, so that each order of the first two runs comes up equally often.
constexpr int kRounds = 6;

/// Tries per layer microbenchmark; the fastest counts.
constexpr int kLayerRepeats = 3;

/// The end-to-end simulated outcome of one run.
struct SimOutcome {
  double gcycles;       // virtual makespan (serving: first arrival to drain)
  double lar;           // local access ratio
  double q_per_mcycle;  // records, probes or requests per million cycles
};

SimOutcome Summarize(const Workload& w, const Outcome& o) {
  double cycles, work;
  if (w.kind == Kind::kServe) {
    cycles = static_cast<double>(o.serving.makespan_cycles);
    work = static_cast<double>(o.serving.completed);
  } else {
    cycles = static_cast<double>(o.run.cycles);
    work = static_cast<double>(w.kind == Kind::kW1 ? w.rc.num_records
                                                   : w.rc.probe_rows);
  }
  return {cycles / 1e9, o.run.report.LocalAccessRatio(),
          Ratio(work * 1e6, cycles)};
}

uint64_t Fingerprint(const std::vector<uint64_t>& v) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the little-endian bytes
  for (uint64_t x : v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// Host-speed calibration: a fixed run of lookups of scattered keys in a
/// std::unordered_map of 300k entries (about 10 MB of buckets and nodes),
/// independent of numalab. On a shared host, neighbours' load moves the
/// simulator's speed by up to 2x within minutes, mostly through the
/// last-level cache and memory. This kernel, hashing plus pointer chasing
/// through a working set larger than the cache, slows with it: over such a
/// swing on a shared 4-core Xeon VM its time moved 1.87x where W4's run time
/// moved 1.9x, while a plain DRAM chase moved 1.23x and an integer loop
/// 1.16x. Host times are
/// reported scaled to the speed at which one run of the kernel takes
/// kCalibRefS. The map lives in one arena, written in full and never freed,
/// so the kernel adds exactly kArenaMb to the peak RSS.
class Calibrator {
 public:
  static constexpr double kCalibRefS = 0.05;
  static constexpr size_t kArenaBytes = 16 << 20;
  static constexpr double kArenaMb = kArenaBytes >> 20;  // PeakRssMb's unit

  Calibrator()
      : arena_(kArenaBytes),
        pool_(arena_.data(), arena_.size(), std::pmr::null_memory_resource()),
        map_(&pool_) {
    map_.reserve(kEntries);
    for (uint64_t i = 0; i < kEntries; ++i) map_[i * kScatter] = i;
  }

  /// Seconds for one run of the kernel.
  double Measure() {
    auto t0 = Clock::now();
    uint64_t x = 0, s = 0x243f6a8885a308d3ULL;
    for (int i = 0; i < kLookups; ++i) {
      s ^= s << 13;  // xorshift64
      s ^= s >> 7;
      s ^= s << 17;
      x += map_.find((s % kEntries) * kScatter)->second;
    }
    sink_ = x;
    return Since(t0);
  }

  static double ToRef(double host_s, double calib_s) {
    return host_s * kCalibRefS / calib_s;
  }

 private:
  static constexpr uint64_t kEntries = 300'000;
  static constexpr int kLookups = 1'000'000;
  std::vector<std::byte> arena_;
  std::pmr::monotonic_buffer_resource pool_;
  std::pmr::unordered_map<uint64_t, uint64_t> map_;
  volatile uint64_t sink_ = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Per-layer host microbenchmarks. Each builds a cold one-machine SimContext
// (tuned base, Machine A), runs a named coroutine on it and times the layer
// calls from inside the coroutine.

constexpr uint64_t kLine = 64;

struct MemCase {
  const char* name;
  uint64_t bytes;
  int node_shift;  // 0 = the reader's node, 1 = the next node
  uint64_t ThreadCounters::*served;  // the counter of the intended level
  uint8_t* buf = nullptr;
  double ns = 0;
  double share = 0;  // share of reads served by the intended level
};

// Two workers on one node (Dense affinity): worker 0 reads and is timed,
// worker 1 only feeds the node's LLC. The tag arrays are direct-mapped and
// hashed, so a working set between the private and the LLC capacity is not
// served by the LLC; a line that misses a core's private cache but hits the
// LLC is one that another core of the node brought in. The last case is the
// LLC case: the feeder loads a chunk, then the reader reads it once.
struct MemProbe {
  SimContext* ctx = nullptr;
  std::vector<MemCase> cases;
  uint64_t reads = 0;
  double span_ns_per_line = 0;
};

constexpr uint64_t kChunk = 128 << 10;  // fits one core's private cache

sim::Task MemReader(Env& env, MemProbe& p) {
  const numalab::topology::Machine& m = p.ctx->machine();
  sim::SimBarrier* barrier = p.ctx->barrier();
  int home = m.NodeOfHwThread(env.self->hw_thread);
  for (MemCase& c : p.cases) {
    numalab::workloads::PretouchAsNode(
        env.mem, c.buf, c.bytes, (home + c.node_shift) % m.num_nodes());
  }
  auto timed_reads = [&](MemCase& c, const ThreadCounters& d, double secs) {
    c.ns = secs * 1e9 / static_cast<double>(d.mem_accesses);
    c.share = Ratio(static_cast<double>(d.*c.served),
                    static_cast<double>(d.mem_accesses));
  };
  // Private and DRAM cases: a scattered cyclic sweep after a warm pass.
  for (size_t k = 0; k + 1 < p.cases.size(); ++k) {
    MemCase& c = p.cases[k];
    uint64_t mask = c.bytes / kLine - 1;
    for (uint64_t i = 0; i <= mask; ++i) {
      env.Read(c.buf + ((i * kScatter) & mask) * kLine, 8);
      if ((i & 63) == 63) co_await env.Checkpoint();
    }
    ThreadCounters before = env.self->counters;
    auto t0 = Clock::now();
    for (uint64_t i = 0; i < p.reads; ++i) {
      env.Read(c.buf + ((i * kScatter) & mask) * kLine, 8);
      if ((i & 63) == 63) co_await env.Checkpoint();
    }
    double secs = Since(t0);
    timed_reads(c, env.self->counters.Minus(before), secs);
  }
  // LLC case, chunk by chunk; the feeder is parked at the barrier while the
  // reader is timed.
  MemCase& llc = p.cases.back();
  const uint64_t chunk_lines = kChunk / kLine;
  ThreadCounters sum;
  double secs = 0;
  co_await barrier->Arrive();  // releases the feeder
  for (uint64_t r = 0; r < llc.bytes / kChunk; ++r) {
    co_await barrier->Arrive();  // chunk r is in the LLC
    const uint8_t* base = llc.buf + r * kChunk;
    ThreadCounters before = env.self->counters;
    auto t0 = Clock::now();
    for (uint64_t i = 0; i < chunk_lines; ++i) {
      env.Read(base + ((i * kScatter) & (chunk_lines - 1)) * kLine, 8);
      if ((i & 63) == 63) co_await env.Checkpoint();
    }
    secs += Since(t0);
    sum.Add(env.self->counters.Minus(before));
    co_await barrier->Arrive();  // the feeder may load the next chunk
  }
  timed_reads(llc, sum, secs);
  // Span path: whole-buffer strided reads over the local DRAM buffer.
  const MemCase& big = p.cases[1];
  uint64_t lines = 0;
  auto t0 = Clock::now();
  for (int rep = 0; rep < 4; ++rep) {
    env.ReadSpan(big.buf, big.bytes, kLine);
    lines += big.bytes / kLine;
    co_await env.Checkpoint();
  }
  p.span_ns_per_line = Since(t0) * 1e9 / static_cast<double>(lines);
}

sim::Task MemFeeder(Env& env, MemProbe& p) {
  sim::SimBarrier* barrier = p.ctx->barrier();
  const MemCase& llc = p.cases.back();
  co_await barrier->Arrive();  // waits for the reader to reach the LLC case
  for (uint64_t r = 0; r < llc.bytes / kChunk; ++r) {
    env.ReadSpan(llc.buf + r * kChunk, kChunk, kLine);
    co_await barrier->Arrive();
    co_await barrier->Arrive();
  }
}

struct AllocProbe {
  std::vector<uint32_t> sizes;
  double ns = 0;
};

// W1's growable per-group arrays: 8 int64 to start, doubling; a group of n
// values passes through every smaller capacity, so class k is drawn with
// weight 2^-k. A ring of live blocks keeps the heap populated.
sim::Task AllocProbeWorker(Env& env, AllocProbe& p) {
  std::vector<void*> ring(4096, nullptr);
  auto t0 = Clock::now();
  for (size_t i = 0; i < p.sizes.size(); ++i) {
    void*& slot = ring[i % ring.size()];
    if (slot != nullptr) env.alloc->Free(slot);
    slot = env.alloc->Alloc(p.sizes[i]);
    if ((i & 63) == 63) co_await env.Checkpoint();
  }
  p.ns = Since(t0) * 1e9 / static_cast<double>(p.sizes.size());
  for (void* b : ring) env.alloc->Free(b);
}

struct IndexProbe {
  std::vector<datagen::JoinTuple> build, probe;
  uint64_t seed = 0;
  double insert_ns = 0, lookup_ns = 0;
  uint64_t found = 0;
};

sim::Task IndexProbeWorker(Env& env, IndexProbe& p) {
  auto idx = numalab::index::MakeIndex("art", p.seed);
  auto t0 = Clock::now();
  for (size_t i = 0; i < p.build.size(); ++i) {
    idx->Insert(env, p.build[i].key, p.build[i].payload);
    if ((i & 63) == 63) co_await env.Checkpoint();
  }
  p.insert_ns = Since(t0) * 1e9 / static_cast<double>(p.build.size());
  t0 = Clock::now();
  for (size_t i = 0; i < p.probe.size(); ++i) {
    uint64_t v = 0;
    p.found += idx->Lookup(env, p.probe[i].key, &v) ? 1 : 0;
    if ((i & 63) == 63) co_await env.Checkpoint();
  }
  p.lookup_ns = Since(t0) * 1e9 / static_cast<double>(p.probe.size());
}

sim::Task ResumeWorker(Env& env, uint64_t yields) {
  uint64_t q = env.engine->quantum();
  for (uint64_t i = 0; i < yields; ++i) {
    env.Compute(q);  // past the quantum, so every checkpoint yields
    co_await env.Checkpoint();
  }
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void AddHostLayerMetrics(const Args& a, const Workload& w, HostTrace* ht,
                         std::vector<Metric>* m,
                         std::vector<std::string>* errors) {
  uint64_t scale = a.small ? 8 : 1;
  {  // mem: scalar reads per cache level, then the span path.
    ScopedHostSpan span(ht, "layer.mem");
    RunConfig rc = TunedBase(2);
    rc.affinity = numalab::osmodel::Affinity::kDense;
    SimContext ctx(rc);
    MemProbe p;
    p.ctx = &ctx;
    p.reads = 1'000'000 / scale;
    const uint64_t dram = (16 << 20) / scale;  // a power of two, > LLC
    p.cases = {{"private_hit", 128 << 10, 0, &ThreadCounters::private_hits},
               {"local_dram", dram, 0, &ThreadCounters::local_dram},
               {"remote_dram", dram, 1, &ThreadCounters::remote_dram},
               {"llc_hit", dram, 0, &ThreadCounters::llc_hits}};
    for (MemCase& c : p.cases) c.buf = ctx.AllocInput<uint8_t>(c.bytes);
    ctx.SpawnWorkers([&](Env& env) {
      return env.worker_index == 0 ? MemReader(env, p) : MemFeeder(env, p);
    });
    RunResult r;
    ctx.Finish(&r);
    for (const MemCase& c : p.cases) {
      m->push_back({std::string("mem.read_ns.") + c.name, c.ns, "ns"});
      if (c.share < 0.9) {
        errors->push_back(std::string("mem.read_ns.") + c.name + ": only " +
                          std::to_string(c.share) +
                          " of reads hit the intended level");
      }
    }
    m->push_back({"mem.span_ns_per_line", p.span_ns_per_line, "ns"});
  }
  {  // alloc: Alloc+Free pairs over W1's size mix, per allocator model.
    ScopedHostSpan span(ht, "layer.alloc");
    numalab::SplitMix64 rng(w.rc.seed);
    AllocProbe p;
    p.sizes.resize(400'000 / scale);
    for (uint32_t& s : p.sizes) {
      int k = 0;
      while (k < 9 && (rng.Next() & 1) != 0) ++k;
      s = 64u << k;
    }
    for (const char* name : {"ptmalloc", "tbbmalloc"}) {
      RunConfig rc = TunedBase(1);
      rc.allocator = name;
      SimContext ctx(rc);
      ctx.SpawnWorkers([&](Env& env) { return AllocProbeWorker(env, p); });
      RunResult r;
      ctx.Finish(&r);
      m->push_back({std::string("alloc.pair_ns.") + name, p.ns, "ns"});
    }
  }
  {  // datagen: the batch workloads' generators, at the workloads' sizes.
    ScopedHostSpan span(ht, "layer.datagen");
    Workload w1, w4;
    MakeWorkload("w1_agg_outofbox", w.rc.seed, a.small, &w1);
    MakeWorkload("w4_art_tuned", w.rc.seed, a.small, &w4);
    auto t0 = Clock::now();
    auto agg = datagen::MakeAggregationInput(
        w1.rc.dataset, w1.rc.num_records, w1.rc.cardinality, w1.rc.seed);
    m->push_back({"datagen.agg_host_s", Since(t0), "s"});
    std::vector<datagen::JoinTuple> build, probe;
    t0 = Clock::now();
    datagen::MakeJoinInput(w4.rc.build_rows, w4.rc.probe_rows, w4.rc.seed,
                           &build, &probe);
    m->push_back({"datagen.join_host_s", Since(t0), "s"});
  }
  {  // index: ART inserts then lookups in a one-worker context.
    ScopedHostSpan span(ht, "layer.index");
    IndexProbe p;
    p.seed = w.rc.seed;
    datagen::MakeJoinInput(100'000 / scale, 200'000 / scale, w.rc.seed,
                           &p.build, &p.probe);
    SimContext ctx(TunedBase(1));
    ctx.SpawnWorkers([&](Env& env) { return IndexProbeWorker(env, p); });
    RunResult r;
    ctx.Finish(&r);
    if (p.found != p.probe.size()) {
      errors->push_back("index probe: " + std::to_string(p.found) + " of " +
                        std::to_string(p.probe.size()) + " keys found");
    }
    m->push_back({"index.insert_ns.art", p.insert_ns, "ns"});
    m->push_back({"index.lookup_ns.art", p.lookup_ns, "ns"});
  }
  {  // sim: checkpoint yields of 16 workers, each resumed by the engine.
    ScopedHostSpan span(ht, "layer.sim");
    const int workers = 16;
    const uint64_t yields = 20'000 / scale;
    SimContext ctx(TunedBase(workers));
    ctx.SpawnWorkers([&](Env& env) { return ResumeWorker(env, yields); });
    RunResult r;
    auto t0 = Clock::now();
    ctx.Finish(&r);
    m->push_back({"sim.resume_ns",
                  Since(t0) * 1e9 / static_cast<double>(workers * yields),
                  "ns"});
  }
}

void AddSimLayerMetrics(const Workload& w, const Outcome& o,
                        std::vector<Metric>* m) {
  const ThreadCounters& t = o.run.report.threads;
  const numalab::perf::SystemCounters& s = o.run.report.system;
  auto d = [](uint64_t x) { return static_cast<double>(x); };
  double lines = d(t.private_hits + t.llc_hits + t.llc_misses);
  m->insert(m->end(), {
      {"mem.accesses", d(t.mem_accesses), "count"},
      {"mem.private_hit_ratio", Ratio(d(t.private_hits), lines), "ratio"},
      {"mem.llc_hit_ratio",
       Ratio(d(t.llc_hits), d(t.llc_hits + t.llc_misses)), "ratio"},
      {"mem.tlb_miss_ratio",
       Ratio(d(t.tlb_misses), d(t.tlb_hits + t.tlb_misses)), "ratio"},
      {"mem.remote_dram", d(t.remote_dram), "count"},
      {"mem.queue_delay_gcycles", d(t.queue_delay_cycles) / 1e9, "Gcycles"},
      {"alloc.calls", d(t.alloc_calls + t.free_calls), "count"},
      {"alloc.gcycles", d(t.alloc_cycles) / 1e9, "Gcycles"},
      {"alloc.lock_wait_gcycles", d(t.lock_wait_cycles) / 1e9, "Gcycles"},
      {"alloc.mem_overhead", o.run.MemoryOverhead(), "ratio"},
      {"index.build_gcycles",
       w.kind == Kind::kW4 ? d(o.run.aux_cycles) / 1e9 : 0.0, "Gcycles"},
      {"osmodel.hinting_faults", d(t.hinting_faults), "count"},
      {"osmodel.page_migrations", d(s.page_migrations), "count"},
      {"osmodel.thp_collapses", d(s.thp_collapses), "count"},
      {"osmodel.thp_splits", d(s.thp_splits), "count"},
      {"osmodel.thread_migrations", d(t.thread_migrations), "count"},
      {"osmodel.balancer_migrations", d(s.balancer_migrations), "count"},
  });
  const ServingStats& st = o.serving;
  const StorageStats& sg = o.storage;
  m->insert(m->end(), {
      {"serve.batches", d(st.batches), "count"},
      {"serve.mean_batch", Ratio(d(st.batched_requests), d(st.batches)),
       "requests"},
      {"serve.max_queue_depth", d(st.max_queue_depth), "count"},
      {"serve.rejected", d(st.rejected), "count"},
      {"serve.p99_kcycles", d(st.p99) / 1e3, "kcycles"},
      {"storage.hit_ratio", sg.HitRate(), "ratio"},
      {"storage.evictions", d(sg.evictions), "count"},
      {"storage.writebacks", d(sg.writebacks), "count"},
      {"storage.wal_records", d(sg.wal_records), "count"},
      {"storage.wal_flushes", d(sg.wal_flushes), "count"},
      {"storage.checkpoints", d(sg.checkpoints), "count"},
  });
  // Virtual-time phase spans of the traced run: each phase's extent (first
  // start to last end over all threads) and its summed counter deltas.
  for (const char* phase : {"build", "aggregate", "probe", "serve"}) {
    uint64_t lo = UINT64_MAX, hi = 0, acc = 0, remote = 0;
    for (const auto& sp : o.run.trace.spans) {
      if (sp.name != phase) continue;
      lo = std::min(lo, sp.start_cycle);
      hi = std::max(hi, sp.end_cycle);
      acc += sp.delta.mem_accesses;
      remote += sp.delta.remote_dram;
    }
    std::string p = std::string("workloads.") + phase;
    m->insert(m->end(), {
        {p + "_gcycles", hi > lo ? d(hi - lo) / 1e9 : 0.0, "Gcycles"},
        {p + "_maccesses", d(acc) / 1e6, "Maccesses"},
        {p + "_remote_dram", d(remote), "count"},
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The calibration kernel's map is built first, outside set-up time; its
  // arena is taken off the peak RSS the program is charged. Set-up is
  // scaled by the median of four kernel runs, two on each side of it: one
  // is too short to stand for the host's speed over a whole set-up.
  Calibrator calib;
  std::vector<double> calibs = {calib.Measure(), calib.Measure()};
  auto start = Clock::now();
  Args a = ParseArgs(argc, argv);
  Workload w;
  if (!MakeWorkload(a.workload, a.seed, a.small, &w)) {
    Usage("unknown workload '" + a.workload + "'");
  }
  HostTrace ht(start);
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  uint64_t attempted = 0, failed = 0;

  // Operations: a batch run counts as one; a serving run counts its offered
  // requests, each failed if the run broke an oracle, else if it was dropped.
  auto account = [&](const Outcome& o, size_t errors_before) {
    bool broke = errors.size() > errors_before;
    if (w.kind == Kind::kServe) {
      attempted += w.sc.requests;
      failed += broke ? w.sc.requests : o.serving.dropped;
    } else {
      attempted += 1;
      failed += broke ? 1 : 0;
    }
  };

  // --- Set-up: the oracle's reference, then one untimed warm-up run of
  // draw 0. Set-up time runs from here to the end of that run.
  uint64_t w1_reference = 0;
  Outcome first;
  {
    ScopedHostSpan span(&ht, "setup");
    if (w.kind == Kind::kW1) {
      ScopedHostSpan ref(&ht, "setup.w1_reference");
      w1_reference = W1Reference(w.rc);
    }
    {
      ScopedHostSpan run(&ht, "setup.warmup_run");
      first = RunOnce(w, /*draw=*/0, /*traced=*/false);
    }
    size_t before = errors.size();
    CheckRun(w, w1_reference, {}, first, "warm-up run", &errors);
    account(first, before);
  }
  double setup_wall_s = Since(start);
  calibs.push_back(calib.Measure());
  calibs.push_back(calib.Measure());
  double calib_prev = calibs.back();
  metrics.push_back(
      {"setup_s", Calibrator::ToRef(setup_wall_s, Median(calibs)), "s"});

  // --- Timed runs, tracing off: every draw once, then more until the time
  // is up. Each run's host time is scaled by the calibration kernel runs
  // that bracket it; the simulated outcome is the median over the draws.
  std::vector<std::vector<uint64_t>> draw_sim(kDraws);
  draw_sim[0] = first.sim;
  std::vector<double> host_ref, host_wall, accesses, gcycles, lar, q_rate;
  // Scales a run that just ended by the kernel runs before and after it.
  auto calibrated = [&](double host_s) {
    double c = calib.Measure();
    calibs.push_back(c);
    double ref = Calibrator::ToRef(host_s, 0.5 * (calib_prev + c));
    calib_prev = c;
    return ref;
  };
  if (!a.setup_only) {
    auto t0 = Clock::now();
    for (int k = 0; k < kDraws || Since(t0) < a.seconds; ++k) {
      int draw = k % kDraws;
      Outcome o;
      {
        ScopedHostSpan span(&ht, "timed_run");
        o = RunOnce(w, draw, /*traced=*/false);
      }
      double ref = calibrated(o.host_s);
      size_t before = errors.size();
      std::string label = "draw " + std::to_string(draw) + " timed run";
      CheckRun(w, w1_reference, draw_sim[static_cast<size_t>(draw)], o,
               label.c_str(), &errors);
      account(o, before);
      host_ref.push_back(ref);
      host_wall.push_back(o.host_s);
      accesses.push_back(
          static_cast<double>(o.run.report.threads.mem_accesses));
      if (k < kDraws) {
        if (draw_sim[static_cast<size_t>(draw)].empty()) {
          draw_sim[static_cast<size_t>(draw)] = o.sim;
        }
        SimOutcome so = Summarize(w, o);
        gcycles.push_back(so.gcycles);
        lar.push_back(so.lar);
        q_rate.push_back(so.q_per_mcycle);
      }
    }
  }

  // Host time per run is the median calibrated run: a single kernel run is
  // noisy, and the median over 8 or more runs is steadier than the fastest.
  double host_s = host_ref.empty() ? 0.0 : Median(host_ref);
  if (!a.setup_only && !a.trace) {
    metrics.insert(metrics.end(), {
        {"host_s", host_s, "s"},
        {"sim_maccess_per_s", Median(accesses) / host_s / 1e6, "Maccess/s"},
        {"peak_rss_mb", PeakRssMb() - Calibrator::kArenaMb, "MB"},
        {"sim_gcycles", Median(gcycles), "Gcycles"},
        {"sim_lar", Median(lar), "ratio"},
        {"sim_q_per_mcycle", Median(q_rate), "items/Mcycle"},
    });
  } else if (!a.setup_only) {
    // --- Draw-0 runs that the traced-mode ratios compare, in rounds: an
    // untraced run, a traced run (simulator phase spans) and, on the serving
    // workload, the same stream with storage off. One draw keeps the
    // simulated work fixed. Each ratio is taken between runs of one round,
    // which follow each other, so it is free of host drift; its median over
    // the rounds is free of single slowed runs.
    Workload off = w;
    off.sc.storage.enabled = false;
    Outcome traced;
    std::vector<double> traced_ref, traced_vs_plain, off_vs_plain;
    for (int rep = 0; rep < kRounds; ++rep) {
      Outcome plain;
      auto run_plain = [&] {
        {
          ScopedHostSpan span(&ht, "plain_run");
          plain = RunOnce(w, /*draw=*/0, /*traced=*/false);
        }
        calibrated(plain.host_s);
        size_t before = errors.size();
        CheckRun(w, w1_reference, first.sim, plain, "draw 0 untraced run",
                 &errors);
        account(plain, before);
      };
      auto run_traced = [&] {
        {
          ScopedHostSpan span(&ht, "traced_run");
          traced = RunOnce(w, /*draw=*/0, /*traced=*/true);
        }
        traced_ref.push_back(calibrated(traced.host_s));
        size_t before = errors.size();
        CheckRun(w, w1_reference, first.sim, traced, "traced run", &errors);
        account(traced, before);
      };
      // Which of the two runs first alternates, so an effect of the order
      // cancels out.
      if (rep % 2 == 0) {
        run_plain();
        run_traced();
      } else {
        run_traced();
        run_plain();
      }
      traced_vs_plain.push_back(traced.host_s / plain.host_s);
      if (w.kind == Kind::kServe) {
        Outcome o;
        {
          ScopedHostSpan span(&ht, "layer.storage_off_run");
          o = RunOnce(off, /*draw=*/0, /*traced=*/false);
        }
        if (!o.run.status.ok() || o.serving.dropped != 0) {
          errors.push_back("storage-off run: " + o.run.status.ToString());
        }
        calibrated(o.host_s);
        off_vs_plain.push_back(o.host_s / plain.host_s);
      }
    }
    metrics.insert(metrics.end(), {
        {"trace.host_s", Median(traced_ref), "s"},
        {"trace.overhead_share", Median(traced_vs_plain) - 1.0, "ratio"},
        {"host.runs", static_cast<double>(host_ref.size()), "count"},
        {"host.median_s", Median(host_ref), "s"},
        {"host.wall_s", Median(host_wall), "s"},
        {"host.calib_s", Median(calibs), "s"},
    });
    AddSimLayerMetrics(w, traced, &metrics);
    // Storage off, requests take another path (range scans over raw
    // partition slabs, upserts into the probe table), which is slower on
    // this mix; so this is a ratio of two paths, not storage's share.
    double off_on = 0, us_per_request = 0;
    if (w.kind == Kind::kServe) {
      us_per_request = host_s * 1e6 / static_cast<double>(w.sc.requests);
      off_on = Median(off_vs_plain);
    }
    metrics.push_back({"serve.host_us_per_request", us_per_request, "us"});
    metrics.push_back({"storage.off_on_ratio", off_on, "ratio"});
    std::vector<Metric> layer;
    for (int rep = 0; rep < kLayerRepeats; ++rep) {
      std::vector<Metric> once;
      AddHostLayerMetrics(a, w, &ht, &once, &errors);
      double to_ref = calibrated(1.0);
      for (size_t i = 0; i < once.size(); ++i) {
        once[i].value *= to_ref;
        if (rep > 0) once[i].value = std::min(once[i].value, layer[i].value);
      }
      layer = std::move(once);
    }
    metrics.insert(metrics.end(), layer.begin(), layer.end());
    if (!a.trace_out.empty()) {
      std::FILE* f = std::fopen(a.trace_out.c_str(), "w");
      std::string body = ht.ChromeJson();
      bool ok = f != nullptr &&
                std::fwrite(body.data(), 1, body.size(), f) == body.size();
      if (f != nullptr && std::fclose(f) != 0) ok = false;
      if (!ok) errors.push_back("cannot write " + a.trace_out);
    }
  }

  std::string out = "{\"workload\":" + JsonString(a.workload) +
                    ",\"seed\":" + std::to_string(a.seed);
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, Fingerprint(first.sim));
  out += ",\"fingerprint\":\"" + std::string(fp) + "\"";
  out += ",\"runs\":" + std::to_string(host_ref.size());
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += (i == 0 ? "" : ",") + JsonString(errors[i]);
  }
  out += "],\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ",") + JsonString(metrics[i].name) +
           ":{\"value\":" + JsonNumber(metrics[i].value) +
           ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
