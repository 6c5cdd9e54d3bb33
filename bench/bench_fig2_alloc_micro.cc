// Figure 2 — memory allocator microbenchmark on Machine A.
//
//   Fig 2a: execution time (virtual seconds) vs thread count, 1..16.
//   Fig 2b: memory overhead (resident peak / requested peak) at
//           1, 2, 4, 8, 16 threads.
//
// Paper shapes to reproduce: tcmalloc fastest at one thread, immediately
// behind at >=2; Hoard and tbbmalloc scale best; supermalloc worst at high
// thread counts; mcmalloc's overhead explodes with threads (to ~6.6x);
// Hoard/tbbmalloc slightly memory-hungry; jemalloc lean.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_common.h"
#include "src/alloc/allocator.h"
#include "src/workloads/alloc_microbench.h"

int main(int argc, char** argv) {
  constexpr uint64_t kOps = 60'000;  // scaled from the paper's 100M ops/thread
  numalab::bench::BenchMain(argc, argv);
  const auto& allocators = numalab::alloc::AllAllocatorNames();

  std::printf("Figure 2a: allocator scalability — Machine A, %llu ops/thread"
              " (virtual Gcycles)\n",
              static_cast<unsigned long long>(kOps));
  std::printf("%-12s", "threads");
  for (const auto& a : allocators) std::printf("%12s", a.c_str());
  std::printf("\n");
  for (int threads : {1, 2, 4, 8, 12, 16}) {
    std::printf("%-12d", threads);
    for (const auto& a : allocators) {
      auto r = numalab::workloads::RunAllocMicrobench(a, "A", threads, kOps,
                                                      /*seed=*/42);
      std::printf("%12.3f", static_cast<double>(r.cycles) / 1e9);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  std::printf("\nFigure 2b: memory consumption overhead (resident/requested)"
              " — Machine A\n");
  std::printf("%-12s", "threads");
  for (const auto& a : allocators) std::printf("%12s", a.c_str());
  std::printf("\n");
  for (int threads : {1, 2, 4, 8, 16}) {
    std::printf("%-12d", threads);
    for (const auto& a : allocators) {
      auto r = numalab::workloads::RunAllocMicrobench(a, "A", threads, kOps,
                                                      /*seed=*/42);
      std::printf("%12.3f", r.MemoryOverhead());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
