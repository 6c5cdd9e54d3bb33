// End-to-end tests for the W4 index nested-loop join across all four index
// structures and several configurations.

#include <gtest/gtest.h>

#include "src/workloads/workloads.h"

namespace numalab {
namespace workloads {
namespace {

class W4Test : public ::testing::TestWithParam<const char*> {};

RunConfig SmallJoin() {
  RunConfig c;
  c.machine = "A";
  c.threads = 8;
  c.affinity = osmodel::Affinity::kSparse;
  c.autonuma = false;
  c.thp = false;
  c.build_rows = 8'000;
  c.probe_rows = 64'000;
  return c;
}

TEST_P(W4Test, EveryProbeMatches) {
  RunConfig c = SmallJoin();
  RunResult r = RunW4IndexJoin(c, GetParam());
  EXPECT_EQ(r.checksum, c.probe_rows);
  EXPECT_GT(r.aux_cycles, 0u);  // build time measured
  EXPECT_GT(r.cycles, 0u);      // join time measured
}

TEST_P(W4Test, DeterministicAndAllocatorAgnosticResult) {
  RunConfig c = SmallJoin();
  RunResult a = RunW4IndexJoin(c, GetParam());
  RunResult b = RunW4IndexJoin(c, GetParam());
  EXPECT_EQ(a.cycles, b.cycles);
  c.allocator = "hoard";
  c.policy = mem::MemPolicy::kInterleave;
  RunResult h = RunW4IndexJoin(c, GetParam());
  EXPECT_EQ(h.checksum, a.checksum);  // config changes timing, not answers
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, W4Test,
                         ::testing::Values("art", "masstree", "btree",
                                           "skiplist"),
                         [](const auto& info) { return info.param; });

// Pins each index's exact build and join charges on SmallJoin, so an index
// rewrite that moves one charge fails here, not only in the fig7 golden.
TEST(W4Pins, ChargesArePinnedPerIndex) {
  struct Pin {
    const char* index;
    uint64_t cycles;
    uint64_t aux_cycles;
    uint64_t mem_accesses;
    uint64_t alloc_calls;
  };
  const Pin kPins[] = {
      {"art", 4'473'745, 2'148'888, 864'183, 8'185},
      {"masstree", 4'727'176, 3'132'517, 718'419, 873},
      {"btree", 3'687'785, 2'216'941, 567'371, 431},
      {"skiplist", 6'971'038, 2'889'914, 1'112'077, 8'049},
  };
  for (const Pin& pin : kPins) {
    RunConfig c = SmallJoin();
    RunResult r = RunW4IndexJoin(c, pin.index);
    EXPECT_EQ(r.cycles, pin.cycles) << pin.index;
    EXPECT_EQ(r.aux_cycles, pin.aux_cycles) << pin.index;
    EXPECT_EQ(r.checksum, c.probe_rows) << pin.index;
    EXPECT_EQ(r.report.threads.mem_accesses, pin.mem_accesses) << pin.index;
    EXPECT_EQ(r.report.threads.alloc_calls, pin.alloc_calls) << pin.index;
  }
}

TEST(W4Ordering, ArtAndBtreeAreTheFastIndexes) {
  // The paper's Fig. 7e: ART and B+tree are the two fastest indexes.
  RunConfig c = SmallJoin();
  c.build_rows = 40'000;
  c.probe_rows = 320'000;
  uint64_t art = RunW4IndexJoin(c, "art").cycles;
  uint64_t btree = RunW4IndexJoin(c, "btree").cycles;
  uint64_t masstree = RunW4IndexJoin(c, "masstree").cycles;
  uint64_t skiplist = RunW4IndexJoin(c, "skiplist").cycles;
  EXPECT_LT(art, masstree);
  EXPECT_LT(art, skiplist);
  EXPECT_LT(btree, masstree);
  EXPECT_LT(btree, skiplist);
}

}  // namespace
}  // namespace workloads
}  // namespace numalab
