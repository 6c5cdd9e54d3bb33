// Serving-layer bench (DESIGN.md section 11): throughput–latency curves for
// the NUMA-aware query-serving subsystem, plus two self-checking demos.
//
// Three sections:
//   1. dynamic batching — the same point-lookup stream dispatched with the
//      batcher on vs off (batch_max=1). The bench prints cycles/query for
//      both and FAILS (exit 1) if batching does not win.
//   2. admission control — a burst overload far beyond service capacity.
//      The bench prints offered/admitted/rejected/dropped and FAILS unless
//      load was actually shed, queue depth stayed bounded, and admitted
//      requests finished with a finite p99.
//   3. throughput–latency curves — offered rate swept across affinity x
//      policy x allocator; each row is one serving run (completed
//      throughput in queries per Mcycle against p50/p95/p99 sojourn).
//
// Like every bench: deterministic stdout (golden-diffed by check.sh), and
// --json-out attaches the per-run "serving" sections via numalab::trace.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/serve/serve.h"

namespace {

using numalab::serve::Arrival;
using numalab::serve::RunServing;
using numalab::serve::ServeConfig;
using numalab::serve::ServeResult;
using numalab::workloads::RunConfig;

}  // namespace

int main(int argc, char** argv) {
  constexpr uint64_t kRequests = 2000;
  constexpr uint64_t kGap = 12'000;
  numalab::bench::BenchMain(argc, argv);

  ServeConfig base;
  base.arrival = Arrival::kPoisson;
  base.requests = kRequests;
  base.mean_gap_cycles = kGap;

  RunConfig rc = numalab::bench::TunedBase("A", 8);
  int failures = 0;

  // --- Section 1: dynamic batching on vs off. ---
  std::printf("serving: dynamic batching (%s arrival, %llu requests)\n",
              numalab::serve::ArrivalName(base.arrival),
              static_cast<unsigned long long>(kRequests));
  {
    ServeConfig sc = base;
    sc.mix_point = 1;
    sc.mix_range = sc.mix_probe = sc.mix_upsert = sc.mix_tpch = 0;
    sc.point_locality = 0.9;
    sc.mean_gap_cycles = 50;  // service-bound: makespan measures throughput
    sc.queue_cap = 4096;      // no shedding in either variant

    ServeConfig unbatched = sc;
    unbatched.batch_max = 1;

    ServeResult on = RunServing(rc, sc);
    ServeResult off = RunServing(rc, unbatched);
    bool ok = on.run.status.ok() && off.run.status.ok() &&
              on.stats.CyclesPerQuery() < off.stats.CyclesPerQuery() &&
              on.stats.checksum == off.stats.checksum;
    std::printf("%-12s %14s %12s %10s %10s\n", "dispatch", "cycles/query",
                "batches", "max_batch", "p99");
    std::printf("%-12s %14.1f %12llu %10llu %10llu\n", "batched",
                on.stats.CyclesPerQuery(),
                static_cast<unsigned long long>(on.stats.batches),
                static_cast<unsigned long long>(on.stats.max_batch),
                static_cast<unsigned long long>(on.stats.p99));
    std::printf("%-12s %14.1f %12llu %10llu %10llu\n", "unbatched",
                off.stats.CyclesPerQuery(),
                static_cast<unsigned long long>(off.stats.batches),
                static_cast<unsigned long long>(off.stats.max_batch),
                static_cast<unsigned long long>(off.stats.p99));
    std::printf("batching speedup: %.2fx (%s)\n",
                on.stats.CyclesPerQuery() > 0
                    ? off.stats.CyclesPerQuery() / on.stats.CyclesPerQuery()
                    : 0.0,
                ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  }

  // --- Section 2: admission control under burst overload. ---
  std::printf("\nserving: admission control under overload\n");
  {
    ServeConfig sc = base;
    sc.arrival = Arrival::kBurst;
    sc.burst_size = 128;
    sc.mean_gap_cycles = 40;
    sc.queue_cap = 16;
    sc.max_retries = 2;
    sc.retry_backoff_cycles = 20'000;

    ServeResult r = RunServing(rc, sc);
    const numalab::serve::ServingStats& st = r.stats;
    bool bounded = st.max_queue_depth <= sc.queue_cap;
    bool ok = r.run.status.ok() && st.rejected > 0 && st.dropped > 0 &&
              bounded && st.completed > 0 && st.p99 > 0 &&
              st.admitted + st.dropped == st.offered;
    std::printf(
        "offered=%llu admitted=%llu completed=%llu rejected=%llu "
        "retries=%llu dropped=%llu\n",
        static_cast<unsigned long long>(st.offered),
        static_cast<unsigned long long>(st.admitted),
        static_cast<unsigned long long>(st.completed),
        static_cast<unsigned long long>(st.rejected),
        static_cast<unsigned long long>(st.retries),
        static_cast<unsigned long long>(st.dropped));
    std::printf("max queue depth %llu (cap %llu, %s), admitted p99 %llu\n",
                static_cast<unsigned long long>(st.max_queue_depth),
                static_cast<unsigned long long>(sc.queue_cap),
                bounded ? "bounded" : "OVERFLOW",
                static_cast<unsigned long long>(st.p99));
    std::printf("admission: %s\n", ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  }

  // --- Section 3: throughput-latency curves. ---
  std::printf("\nserving: throughput-latency (%s arrival, %llu requests)\n",
              numalab::serve::ArrivalName(base.arrival),
              static_cast<unsigned long long>(kRequests));
  std::printf("%-7s %-11s %-10s %8s %10s %8s %8s %8s %8s\n", "aff",
              "policy", "alloc", "gap", "q/Mcycle", "p50", "p95", "p99",
              "drop");
  struct Cell {
    numalab::osmodel::Affinity aff;
    numalab::mem::MemPolicy policy;
    const char* alloc;
  };
  const std::vector<Cell> cells = {
      {numalab::osmodel::Affinity::kSparse,
       numalab::mem::MemPolicy::kFirstTouch, "ptmalloc"},
      {numalab::osmodel::Affinity::kSparse,
       numalab::mem::MemPolicy::kInterleave, "ptmalloc"},
      {numalab::osmodel::Affinity::kSparse,
       numalab::mem::MemPolicy::kFirstTouch, "tbbmalloc"},
      {numalab::osmodel::Affinity::kNone,
       numalab::mem::MemPolicy::kFirstTouch, "ptmalloc"},
  };
  const std::vector<uint64_t> gaps = {4 * kGap, 2 * kGap, kGap, kGap / 2,
                                      kGap / 4};
  for (const Cell& cell : cells) {
    RunConfig cfg = rc;
    cfg.affinity = cell.aff;
    cfg.policy = cell.policy;
    cfg.allocator = cell.alloc;
    for (uint64_t g : gaps) {
      ServeConfig sc = base;
      sc.mean_gap_cycles = g > 0 ? g : 1;
      ServeResult r = RunServing(cfg, sc);
      if (!r.run.status.ok()) {
        std::printf("%-7s %-11s %-10s %8llu %s\n",
                    numalab::osmodel::AffinityName(cell.aff),
                    numalab::mem::MemPolicyName(cell.policy), cell.alloc,
                    static_cast<unsigned long long>(sc.mean_gap_cycles),
                    r.run.status.ToString().c_str());
        ++failures;
        continue;
      }
      std::printf("%-7s %-11s %-10s %8llu %10.2f %8llu %8llu %8llu %8llu\n",
                  numalab::osmodel::AffinityName(cell.aff),
                  numalab::mem::MemPolicyName(cell.policy), cell.alloc,
                  static_cast<unsigned long long>(sc.mean_gap_cycles),
                  r.stats.PerMcycle(),
                  static_cast<unsigned long long>(r.stats.p50),
                  static_cast<unsigned long long>(r.stats.p95),
                  static_cast<unsigned long long>(r.stats.p99),
                  static_cast<unsigned long long>(r.stats.dropped));
    }
  }

  std::printf("\nbench_serving: %s\n", failures == 0 ? "OK" : "FAIL");
  return failures == 0 ? 0 : 1;
}
