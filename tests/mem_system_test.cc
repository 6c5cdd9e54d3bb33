// Unit tests for the simulated memory system: placement policies, first
// touch, TLB behaviour, cache effects, THP fault/collapse/split, page
// migration and DONTNEED semantics.

#include <gtest/gtest.h>

#include "src/mem/mem_system.h"
#include "src/sim/engine.h"
#include "src/topology/machine.h"

namespace numalab {
namespace mem {
namespace {

class MemSystemTest : public ::testing::Test {
 protected:
  MemSystemTest()
      : machine_(topology::MachineA()),
        memsys_(&machine_, &engine_, CostModel{}, &sys_) {}

  // Runs `fn` inside a single virtual thread pinned to hw thread `hw`.
  void RunAs(int hw, const std::function<void(sim::VThread*)>& fn) {
    engine_.Spawn("t", hw, [&](sim::VThread* vt) { return Body(fn, vt); });
    engine_.Run();
  }
  static sim::Task Body(const std::function<void(sim::VThread*)>& fn,
                        sim::VThread* vt) {
    fn(vt);
    co_return;
  }

  topology::Machine machine_;
  sim::Engine engine_;
  perf::SystemCounters sys_;
  MemSystem memsys_;
};

TEST_F(MemSystemTest, FirstTouchBindsToAccessor) {
  Region* r = memsys_.os()->TryMap(1 << 20);
  // hw thread 5 on Machine A (2 cores/node) lives on node 2.
  RunAs(5, [&](sim::VThread* vt) {
    memsys_.Read(vt, r->host, 64);
  });
  EXPECT_EQ(r->pages[0].node, machine_.NodeOfHwThread(5));
  EXPECT_EQ(r->pages[1].node, -1);  // untouched pages stay unbound
}

TEST_F(MemSystemTest, InterleaveBindsRoundRobin) {
  memsys_.os()->SetPolicy(MemPolicy::kInterleave);
  Region* r = memsys_.os()->TryMap(8 * kSmallPageBytes);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(r->pages[static_cast<size_t>(i)].node, i % 8);
  }
}

TEST_F(MemSystemTest, PreferredFillsChosenNode) {
  memsys_.os()->SetPolicy(MemPolicy::kPreferred, /*preferred_node=*/3);
  Region* r = memsys_.os()->TryMap(4 * kSmallPageBytes);
  for (const auto& p : r->pages) EXPECT_EQ(p.node, 3);
}

TEST_F(MemSystemTest, RemoteAccessesCountedAndSlower) {
  Region* r = memsys_.os()->TryMap(1 << 20);
  // Bind all pages to node 0 by touching from hw 0 first.
  RunAs(0, [&](sim::VThread* vt) {
    for (uint64_t off = 0; off < r->len; off += kSmallPageBytes) {
      memsys_.Read(vt, r->host + off, 64);
    }
  });
  uint64_t local_cost = engine_.threads()[0]->clock;

  // A fresh thread on a remote node reads different lines of the same pages.
  RunAs(15, [&](sim::VThread* vt) {  // node 7 on machine A
    for (uint64_t off = 128; off < r->len; off += kSmallPageBytes) {
      memsys_.Read(vt, r->host + off, 64);
    }
  });
  const auto& remote_counters = engine_.threads()[1]->counters;
  EXPECT_GT(remote_counters.remote_dram, 0u);
  EXPECT_EQ(remote_counters.local_dram, 0u);
  // Remote accessor pays the latency factor (node 0 <-> 7 is >= 1 hop).
  EXPECT_GT(engine_.threads()[1]->clock, local_cost);
}

TEST_F(MemSystemTest, CachesAbsorbRepeatedAccess) {
  Region* r = memsys_.os()->TryMap(1 << 16);
  RunAs(0, [&](sim::VThread* vt) {
    memsys_.Read(vt, r->host, 64);
    uint64_t misses_cold = vt->counters.llc_misses;
    for (int i = 0; i < 10; ++i) memsys_.Read(vt, r->host, 64);
    EXPECT_EQ(vt->counters.llc_misses, misses_cold);  // all hits after cold
    EXPECT_GT(vt->counters.private_hits, 0u);
  });
}

TEST_F(MemSystemTest, TlbMissesThenHits) {
  Region* r = memsys_.os()->TryMap(1 << 16);
  RunAs(0, [&](sim::VThread* vt) {
    memsys_.Read(vt, r->host, 8);
    EXPECT_EQ(vt->counters.tlb_misses, 1u);
    memsys_.Read(vt, r->host + 64, 8);  // same page
    EXPECT_EQ(vt->counters.tlb_misses, 1u);
    memsys_.Read(vt, r->host + kSmallPageBytes, 8);  // next page
    EXPECT_EQ(vt->counters.tlb_misses, 2u);
  });
}

TEST_F(MemSystemTest, ThpFaultAllocBindsWholeRun) {
  memsys_.os()->SetThpFaultAlloc(true);
  Region* r = memsys_.os()->TryMap(4ULL << 20);
  RunAs(2, [&](sim::VThread* vt) {  // node 1
    memsys_.Read(vt, r->host + 12345, 8);
  });
  // The entire first 2M run is huge, resident and bound to node 1.
  EXPECT_TRUE(r->pages[0].huge);
  EXPECT_TRUE(r->pages[511].huge);
  EXPECT_EQ(r->pages[0].node, 1);
  EXPECT_TRUE(r->pages[511].resident);
  EXPECT_FALSE(r->pages[512].huge);  // second run untouched
  EXPECT_EQ(sys_.thp_collapses, 1u);
}

TEST_F(MemSystemTest, MadviseSplitsHugeAndUnbinds) {
  memsys_.os()->SetThpFaultAlloc(true);
  Region* r = memsys_.os()->TryMap(2ULL << 20);
  RunAs(0, [&](sim::VThread* vt) { memsys_.Read(vt, r->host, 8); });
  ASSERT_TRUE(r->pages[0].huge);
  memsys_.os()->MadviseDontNeed(r, 0, 64 * kSmallPageBytes, /*now=*/0);
  EXPECT_EQ(sys_.thp_splits, 1u);
  EXPECT_FALSE(r->pages[0].huge);
  EXPECT_EQ(r->pages[0].node, -1);       // released pages unbound
  EXPECT_FALSE(r->pages[0].resident);
  EXPECT_EQ(r->pages[100].node, 0);      // rest of the run keeps binding
  EXPECT_TRUE(r->pages[100].resident);
}

TEST_F(MemSystemTest, KhugepagedCollapseRequiresSameNode) {
  Region* r = memsys_.os()->TryMap(2ULL << 20);
  // Touch all pages from node 0, then move one page to node 1.
  RunAs(0, [&](sim::VThread* vt) {
    for (uint64_t off = 0; off < r->len; off += kSmallPageBytes) {
      memsys_.Write(vt, r->host + off, 8);
    }
  });
  memsys_.os()->MigratePage(r, 7, /*to_node=*/1, /*now=*/0);
  EXPECT_FALSE(memsys_.os()->TryCollapseHuge(r, 0, 0));
  memsys_.os()->MigratePage(r, 7, /*to_node=*/0, /*now=*/0);
  EXPECT_TRUE(memsys_.os()->TryCollapseHuge(r, 0, 0));
  EXPECT_TRUE(r->pages[7].huge);
}

TEST_F(MemSystemTest, ResidentAccounting) {
  Region* r = memsys_.os()->TryMap(16 * kSmallPageBytes);
  uint64_t before = memsys_.os()->resident_bytes();
  RunAs(0, [&](sim::VThread* vt) {
    memsys_.Read(vt, r->host, 8);
    memsys_.Read(vt, r->host + kSmallPageBytes, 8);
  });
  EXPECT_EQ(memsys_.os()->resident_bytes() - before, 2 * kSmallPageBytes);
  memsys_.os()->MadviseDontNeed(r, 0, r->len, 0);
  EXPECT_EQ(memsys_.os()->resident_bytes(), before);
}

TEST_F(MemSystemTest, NodeTrafficBeforeFirstSampledFault) {
  // Regression: the AutoNUMA balancer reads NodeTraffic for a live thread
  // before that thread takes its first sampled fault. NodeTraffic once
  // grew only part of the per-thread sampling state, so the resize guard in
  // SampleAutoNuma was skipped and the short vector was indexed out of
  // bounds (caught under ASan).
  memsys_.SetAutoNumaSampling(true);
  const auto& traffic = memsys_.NodeTraffic(0);  // balancer runs first
  EXPECT_EQ(traffic[0], 0u);
  Region* r = memsys_.os()->TryMap(1 << 20);
  RunAs(0, [&](sim::VThread* vt) {
    // Enough DRAM lines to pass the hinting-fault stride several times.
    for (uint64_t off = 0; off < r->len; off += 64) {
      memsys_.Read(vt, r->host + off, 8);
    }
  });
  EXPECT_GT(engine_.threads()[0]->counters.hinting_faults, 0u);
  EXPECT_GT(memsys_.NodeTraffic(0)[0], 0u);
  // A reset for a thread id the balancer has never seen must also be safe.
  memsys_.ResetNodeTraffic(42);
  EXPECT_EQ(memsys_.NodeTraffic(42)[0], 0u);
}

TEST_F(MemSystemTest, UnmapRecyclesAddressSpace) {
  Region* a = memsys_.os()->TryMap(1 << 20);
  uint64_t base = a->base;
  memsys_.os()->Unmap(a);
  Region* b = memsys_.os()->TryMap(1 << 20);
  EXPECT_EQ(b->base, base);  // same slots reused
}

}  // namespace
}  // namespace mem
}  // namespace numalab
