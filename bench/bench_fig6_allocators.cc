// Figure 6 — memory allocator x memory placement policy across workloads
// and machines:
//   6a-c: W1 (holistic aggregation) on Machines A, B, C.
//   6d-f: W2 (distributive aggregation) on Machines A, B, C.
//   6g-i: W3 (hash join) on Machines A, B, C.
//   6j:   W1 x dataset distribution on Machine A.
//
// Paper shapes: tbbmalloc + Interleave is the best cell nearly everywhere;
// W1 improves up to 62/83/72% (A/B/C) and W3 up to 70/94/92% vs default
// ptmalloc+FirstTouch; W2 gains 27-44%, almost entirely from Interleave.

#include "bench/bench_common.h"
#include "src/workloads/workloads.h"

using numalab::bench::FlagU64;
using numalab::bench::GCycles;
using numalab::bench::kPaperAllocators;
using numalab::bench::kPaperPolicies;
using numalab::bench::TunedBase;
using namespace numalab::workloads;

namespace {

using RunFn = RunResult (*)(const RunConfig&);

void Grid(const char* title, RunFn run, const char* machine,
          RunConfig base) {
  std::printf("%s — Machine %s (Gcycles)\n", title, machine);
  std::printf("%-12s", "allocator");
  for (const auto& [pname, p] : kPaperPolicies) std::printf("%14s", pname);
  std::printf("\n");
  base.machine = machine;
  // Machines differ in hardware thread counts (Table II).
  base.threads = machine[0] == 'A' ? 16 : (machine[0] == 'B' ? 32 : 64);
  for (const char* alloc : kPaperAllocators) {
    std::printf("%-12s", alloc);
    for (const auto& [pname, policy] : kPaperPolicies) {
      RunConfig c = base;
      c.allocator = alloc;
      c.policy = policy;
      RunResult r = run(c);
      std::printf("%14.3f", GCycles(r.cycles));
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t records = FlagU64(argc, argv, "records", 2'000'000);
  uint64_t card = FlagU64(argc, argv, "card", 200'000);
  uint64_t build = FlagU64(argc, argv, "build", 150'000);
  uint64_t probe = FlagU64(argc, argv, "probe", 2'400'000);
  numalab::bench::BenchMain(argc, argv);

  RunConfig agg = TunedBase("A", 16);
  agg.num_records = records;
  agg.cardinality = card;

  for (const char* m : {"A", "B", "C"}) {
    Grid("Figure 6a-c: W1 holistic aggregation",
         &RunW1HolisticAggregation, m, agg);
  }
  RunConfig w2 = agg;
  w2.dataset = Dataset::kZipf;  // W2's default distribution (Table IV)
  for (const char* m : {"A", "B", "C"}) {
    Grid("Figure 6d-f: W2 distributive aggregation",
         &RunW2DistributiveAggregation, m, w2);
  }
  RunConfig join = TunedBase("A", 16);
  join.build_rows = build;
  join.probe_rows = probe;
  for (const char* m : {"A", "B", "C"}) {
    Grid("Figure 6g-i: W3 hash join", &RunW3HashJoin, m, join);
  }

  // 6j: dataset distribution sensitivity, Machine A.
  std::printf("Figure 6j: W1 x dataset distribution — Machine A, Interleave"
              " (Gcycles)\n");
  std::printf("%-12s %14s %14s %14s\n", "allocator", "MovingCluster",
              "Sequential", "Zipf");
  for (const char* alloc : kPaperAllocators) {
    std::printf("%-12s", alloc);
    for (Dataset d : {Dataset::kMovingCluster, Dataset::kSequential,
                      Dataset::kZipf}) {
      RunConfig c = agg;
      c.allocator = alloc;
      c.policy = numalab::mem::MemPolicy::kInterleave;
      c.dataset = d;
      RunResult r = RunW1HolisticAggregation(c);
      std::printf("%14.3f", GCycles(r.cycles));
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
