// Ablation benches (DESIGN.md section 7): turn off one simulator mechanism
// at a time and show which paper effect disappears.
//
//  1. Contention model off  -> Sparse's advantage over Dense vanishes.
//  2. TLB model off         -> THP's effects vanish.
//  3. Allocator lock costs cannot be switched at runtime, so the proxy
//     ablation compares a lock-free allocator (tbbmalloc) against the
//     lock-heavy extreme (supermalloc) at 1 vs 16 threads: with the
//     contention machinery disabled their scaling curves collapse.

#include "bench/bench_common.h"
#include "src/workloads/alloc_microbench.h"
#include "src/workloads/workloads.h"

using numalab::bench::GCycles;
using numalab::bench::TunedBase;
using namespace numalab::workloads;

int main(int argc, char** argv) {
  numalab::bench::BenchMain(argc, argv);
  // --- Ablation 1: contention model vs Sparse/Dense ---
  std::printf("Ablation 1: Dense/Sparse ratio (W1, Machine A, 4 threads)\n");
  for (bool contention : {true, false}) {
    RunConfig c = TunedBase("A", 4);
    c.num_records = 1'000'000;
    c.cardinality = 100'000;
    c.costs.model_contention = contention;
    c.affinity = numalab::osmodel::Affinity::kDense;
    RunResult dense = RunW1HolisticAggregation(c);
    c.affinity = numalab::osmodel::Affinity::kSparse;
    RunResult sparse = RunW1HolisticAggregation(c);
    std::printf("  contention %-3s: D/S = %.3f\n", contention ? "on" : "off",
                static_cast<double>(dense.cycles) /
                    static_cast<double>(sparse.cycles));
  }

  // --- Ablation 2: TLB model vs THP effect ---
  std::printf("\nAblation 2: THP on/off ratio under jemalloc (W1, A)\n");
  for (bool tlb : {true, false}) {
    RunConfig c = TunedBase("A", 16);
    c.num_records = 1'000'000;
    c.cardinality = 100'000;
    c.allocator = "jemalloc";
    c.costs.model_tlb = tlb;
    c.thp = false;
    RunResult off = RunW1HolisticAggregation(c);
    c.thp = true;
    RunResult on = RunW1HolisticAggregation(c);
    std::printf("  tlb model %-3s: THPon/THPoff = %.3f\n", tlb ? "on" : "off",
                static_cast<double>(on.cycles) /
                    static_cast<double>(off.cycles));
  }

  // --- Ablation 3: allocator scalability separation ---
  std::printf("\nAblation 3: allocator 16-thread/1-thread scaling factor\n");
  for (const char* alloc : {"tbbmalloc", "supermalloc"}) {
    auto r1 = RunAllocMicrobench(alloc, "A", 1, 60'000, 42);
    auto r16 = RunAllocMicrobench(alloc, "A", 16, 60'000, 42);
    std::printf(
        "  %-12s: t16/t1 = %.2f (lock waits: %.1fM cycles)\n", alloc,
        static_cast<double>(r16.cycles) / static_cast<double>(r1.cycles),
        static_cast<double>(r16.report.threads.lock_wait_cycles) / 1e6);
  }
  return 0;
}
