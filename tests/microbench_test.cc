// Sanity tests for the Fig. 2 allocator microbenchmark harness and its
// headline scalability/overhead properties.

#include <gtest/gtest.h>

#include "src/workloads/alloc_microbench.h"

namespace numalab {
namespace workloads {
namespace {

TEST(AllocMicrobench, DeterministicPerSeed) {
  auto a = RunAllocMicrobench("jemalloc", "A", 4, 20'000, 42);
  auto b = RunAllocMicrobench("jemalloc", "A", 4, 20'000, 42);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.resident_peak, b.resident_peak);
}

// Pins every model's exact charges at 4 threads. 24,000 ops per thread
// (about 72,000 allocations, 18,000 frees per thread) make jemalloc's decay
// and tcmalloc's scavenge (every 32,768 allocations) sweep, and
// tbbmalloc's cleanup (every 16,384 owner frees) sweep late in teardown,
// when most slabs are dead: a no-op ClassPool::Purge moves all three pins.
TEST(AllocMicrobench, ChargesArePinnedPerAllocator) {
  struct Pin {
    const char* allocator;
    uint64_t cycles;
    uint64_t lock_wait_cycles;
    uint64_t resident_peak;
  };
  const Pin kPins[] = {
      {"ptmalloc", 3'659'246, 3'819'964, 12'574'720},
      {"jemalloc", 2'791'076, 1'126'992, 12'525'568},
      {"tcmalloc", 10'205'188, 34'825'939, 13'352'960},
      {"hoard", 3'339'414, 3'547'855, 12'169'216},
      {"tbbmalloc", 2'233'079, 0, 12'140'544},
      {"supermalloc", 10'084'837, 26'278'313, 9'961'472},
      {"mcmalloc", 3'856'058, 3'909'616, 16'289'792},
  };
  for (const Pin& pin : kPins) {
    auto r = RunAllocMicrobench(pin.allocator, "A", 4, 24'000, 42);
    EXPECT_EQ(r.cycles, pin.cycles) << pin.allocator;
    EXPECT_EQ(r.report.threads.lock_wait_cycles, pin.lock_wait_cycles)
        << pin.allocator;
    EXPECT_EQ(r.resident_peak, pin.resident_peak) << pin.allocator;
  }
}

TEST(AllocMicrobench, SupermallocCollapsesUnderThreads) {
  // Fig. 2a's worst scaler: the single global critical section.
  auto s1 = RunAllocMicrobench("supermalloc", "A", 1, 30'000, 42);
  auto s16 = RunAllocMicrobench("supermalloc", "A", 16, 30'000, 42);
  auto t1 = RunAllocMicrobench("tbbmalloc", "A", 1, 30'000, 42);
  auto t16 = RunAllocMicrobench("tbbmalloc", "A", 16, 30'000, 42);
  double super_scaling = static_cast<double>(s16.cycles) /
                         static_cast<double>(s1.cycles);
  double tbb_scaling = static_cast<double>(t16.cycles) /
                       static_cast<double>(t1.cycles);
  EXPECT_GT(super_scaling, 4.0 * tbb_scaling);
}

TEST(AllocMicrobench, McmallocOverheadGrowsWithThreads) {
  // Fig. 2b: adaptive batching makes slack proportional to thread count.
  auto m1 = RunAllocMicrobench("mcmalloc", "A", 1, 30'000, 42);
  auto m16 = RunAllocMicrobench("mcmalloc", "A", 16, 30'000, 42);
  EXPECT_GT(m16.MemoryOverhead(), 2.0 * m1.MemoryOverhead());
  // While a sane allocator's overhead stays in a narrow band.
  auto p1 = RunAllocMicrobench("ptmalloc", "A", 1, 30'000, 42);
  auto p16 = RunAllocMicrobench("ptmalloc", "A", 16, 30'000, 42);
  EXPECT_LT(p16.MemoryOverhead(), 2.0 * p1.MemoryOverhead());
}

TEST(AllocMicrobench, OverheadIsAboveOne) {
  for (const char* a : {"ptmalloc", "jemalloc", "tbbmalloc"}) {
    auto r = RunAllocMicrobench(a, "A", 2, 20'000, 7);
    EXPECT_GT(r.MemoryOverhead(), 1.0) << a;
    EXPECT_LT(r.MemoryOverhead(), 3.0) << a;
  }
}

}  // namespace
}  // namespace workloads
}  // namespace numalab
