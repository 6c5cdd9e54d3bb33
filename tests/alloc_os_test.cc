// Tests for the allocators' OS interaction: large-block policies (mmap vs
// cache vs cache+decay), residency effects of purging, and THP
// fault/split churn driven by allocator behaviour.

#include <gtest/gtest.h>

#include "src/alloc/allocator.h"
#include "src/mem/mem_system.h"
#include "src/sim/engine.h"
#include "src/topology/machine.h"

namespace numalab {
namespace alloc {
namespace {

class AllocOsTest : public ::testing::Test {
 protected:
  AllocOsTest()
      : machine_(topology::MachineA()),
        memsys_(&machine_, &engine_, mem::CostModel{}, &sys_) {}

  std::unique_ptr<SimAllocator> Make(const char* name) {
    AllocEnv env{&engine_, memsys_.os()};
    return MakeAllocator(name, env);
  }
  void RunAs(int hw, const std::function<void()>& fn) {
    engine_.Spawn("t", hw, [&](sim::VThread*) { return Body(fn); });
    engine_.Run();
  }
  static sim::Task Body(const std::function<void()>& fn) {
    fn();
    co_return;
  }

  topology::Machine machine_;
  sim::Engine engine_;
  perf::SystemCounters sys_;
  mem::MemSystem memsys_;
};

// Baseline for the interleave-under-offline fix: with no faultlab attached
// the rotation must stay the plain round-robin over every node, starting at
// node 0 — the bit-identical contract the faultlab-side tests
// (tests/faultlab_test.cc) compare against.
TEST_F(AllocOsTest, InterleaveRoundRobinsAllNodesWithoutFaultlab) {
  memsys_.os()->SetPolicy(mem::MemPolicy::kInterleave, 0);
  mem::Region* r = memsys_.os()->TryMap(2 * 8 * mem::kSmallPageBytes,
                                        /*thp_eligible=*/false);
  ASSERT_EQ(r->pages.size(), 16u);
  for (size_t i = 0; i < r->pages.size(); ++i) {
    EXPECT_EQ(r->pages[i].node,
              static_cast<int>(i % static_cast<size_t>(machine_.num_nodes())))
        << "page " << i;
  }
  EXPECT_EQ(sys_.offline_redirects, 0u);
  EXPECT_EQ(sys_.pages_spilled, 0u);
}

TEST_F(AllocOsTest, TbbmallocCachesLargeBlocks) {
  auto a = Make("tbbmalloc");
  RunAs(0, [&] {
    void* p = a->Alloc(1 << 20);
    a->Free(p);
    void* q = a->Alloc(1 << 20);
    EXPECT_EQ(q, p);  // cached mapping reused
    a->Free(q);
  });
}

TEST_F(AllocOsTest, PtmallocUnmapsLargeBlocks) {
  auto a = Make("ptmalloc");
  uint64_t mapped_before = 0;
  RunAs(0, [&] {
    void* p = a->Alloc(1 << 20);
    mapped_before = sys_.bytes_mapped;
    a->Free(p);
  });
  // munmap returned the mapping to the OS.
  EXPECT_LT(sys_.bytes_mapped, mapped_before);
}

TEST_F(AllocOsTest, JemallocDecaysLargeBlockPages) {
  auto a = Make("jemalloc");
  RunAs(0, [&] {
    char* p = static_cast<char*>(a->Alloc(1 << 20));
    // Touch the block so its pages are resident.
    engine_.current()->Charge(0);
    for (uint64_t off = 0; off < (1 << 20); off += 4096) {
      memsys_.Write(engine_.current(), p + off, 8);
    }
    uint64_t resident_live = memsys_.os()->resident_bytes();
    a->Free(p);
    // Decay: mapping kept, pages returned.
    EXPECT_LT(memsys_.os()->resident_bytes(), resident_live);
    void* q = a->Alloc(1 << 20);
    EXPECT_EQ(q, p);  // extent cached despite the purge
  });
}

TEST_F(AllocOsTest, ThpChurnOnlyForPurgingAllocators) {
  // Under THP, churning small objects makes eager-purging allocators split
  // huge pages; ptmalloc (no purge) must not split any.
  for (const char* name : {"jemalloc", "ptmalloc"}) {
    sys_ = perf::SystemCounters{};
    memsys_.os()->SetThpFaultAlloc(true);
    auto a = Make(name);
    RunAs(0, [&] {
      std::vector<void*> live;
      for (int round = 0; round < 40; ++round) {
        for (int i = 0; i < 3000; ++i) live.push_back(a->Alloc(96));
        for (void* p : live) a->Free(p);
        live.clear();
      }
    });
    if (std::string(name) == "ptmalloc") {
      EXPECT_EQ(sys_.thp_splits, 0u) << name;
    } else {
      EXPECT_GT(sys_.thp_splits, 0u) << name;
    }
  }
}

TEST_F(AllocOsTest, CarvingBindsPagesFirstTouch) {
  auto a = Make("hoard");
  // Allocate from a thread on node 3: the carved chunk's pages must be
  // bound to node 3 under first touch.
  RunAs(6, [&] {  // hw 6 -> node 3 on Machine A
    void* p = a->Alloc(256);
    auto [region, idx] = memsys_.os()->Lookup(
        reinterpret_cast<uint64_t>(p));
    EXPECT_EQ(region->pages[idx].node, 3);
  });
}

}  // namespace
}  // namespace alloc
}  // namespace numalab
