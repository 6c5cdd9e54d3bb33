// Figure 9 — effect of the memory allocator on TPC-H query latency for the
// MonetDB-like profile on Machine A (queries 5 and 18: joins +
// aggregations).
//
// Paper shape: tbbmalloc cuts Q5 latency ~11% and Q18 ~20% vs ptmalloc.

#include "bench/bench_common.h"
#include "src/minidb/runner.h"

using namespace numalab::minidb;

int main(int argc, char** argv) {
  constexpr double kScale = 0.05;
  numalab::bench::BenchMain(argc, argv);

  std::printf("Figure 9: TPC-H Q5/Q18 latency by allocator — MonetDB-like"
              " profile, Machine A, SF=%.2f (Gcycles)\n", kScale);
  std::printf("%-12s %12s %12s\n", "allocator", "Q5", "Q18");
  for (const char* alloc : numalab::bench::kPaperAllocators) {
    std::printf("%-12s", alloc);
    for (int q : {5, 18}) {
      TpchOptions o;
      o.machine = "A";
      o.profile = "columnar-vec";
      o.query = q;
      o.scale = kScale;
      // Tuned OS environment; only the allocator varies (as in the paper).
      o.tuned = true;
      o.allocator_override = alloc;
      TpchResult r = RunTpch(o);
      std::printf("%12.3f", static_cast<double>(r.cycles) / 1e9);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
