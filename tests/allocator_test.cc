// Property tests for the seven simulated allocators: no overlap among live
// objects, alignment, reuse after free, cross-thread frees, large objects,
// stats accounting. Parameterized over all allocators — one behaviour
// contract.

#include <cstring>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "src/alloc/allocator.h"
#include "src/common/rng.h"
#include "src/mem/mem_system.h"
#include "src/sim/engine.h"
#include "src/topology/machine.h"

namespace numalab {
namespace alloc {
namespace {

class AllocatorTest : public ::testing::TestWithParam<const char*> {
 protected:
  AllocatorTest()
      : machine_(topology::MachineA()),
        memsys_(&machine_, &engine_, mem::CostModel{}, &sys_) {
    AllocEnv env{&engine_, memsys_.os()};
    alloc_ = MakeAllocator(GetParam(), env);
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
  std::unique_ptr<SimAllocator> alloc_;
};

TEST_P(AllocatorTest, LiveObjectsNeverOverlap) {
  RunAs(0, [&] {
    Rng rng(7);
    // The overlap check walks neighbors in address order on purpose, and
    // nothing derived from that order is asserted on or exported.
    // NOLINT-DET(pointer-order): address-ordered bookkeeping is the point
    std::map<char*, size_t> live;  // base -> size
    for (int op = 0; op < 20000; ++op) {
      if (live.size() < 512 && (live.empty() || rng.Bernoulli(0.55))) {
        size_t n = 1 + rng.Uniform(2000);
        char* p = static_cast<char*>(alloc_->Alloc(n));
        ASSERT_NE(p, nullptr);
        // Check against neighbors in address order.
        auto next = live.lower_bound(p);
        if (next != live.end()) {
          ASSERT_LE(p + n, next->first);
        }
        if (next != live.begin()) {
          auto prev = std::prev(next);
          ASSERT_LE(prev->first + prev->second, p);
        }
        live[p] = n;
      } else {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.Uniform(live.size())));
        alloc_->Free(it->first);
        live.erase(it);
      }
    }
    for (auto& [p, n] : live) alloc_->Free(p);
  });
}

TEST_P(AllocatorTest, SixteenByteAlignment) {
  RunAs(0, [&] {
    for (size_t n : {1, 7, 16, 24, 100, 1000, 5000, 40000}) {
      void* p = alloc_->Alloc(n);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u) << n;
      alloc_->Free(p);
    }
  });
}

TEST_P(AllocatorTest, DataSurvivesOtherOperations) {
  RunAs(0, [&] {
    char* a = static_cast<char*>(alloc_->Alloc(100));
    std::memset(a, 0xAB, 100);
    std::vector<void*> noise;
    for (int i = 0; i < 1000; ++i) noise.push_back(alloc_->Alloc(64));
    for (void* p : noise) alloc_->Free(p);
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(static_cast<unsigned char>(a[i]), 0xABu);
    }
    alloc_->Free(a);
  });
}

TEST_P(AllocatorTest, FreedMemoryIsReused) {
  // Some allocators route the specific freed block through caches it will
  // not pop from immediately (e.g. glibc's tcache-overflow path), so the
  // property is: alloc/free churn must recycle *some* address rather than
  // consuming fresh memory forever.
  RunAs(0, [&] {
    // NOLINT-DET(pointer-order): membership-only set, order never observed
    std::set<void*> seen;
    bool reused = false;
    for (int i = 0; i < 200 && !reused; ++i) {
      void* p = alloc_->Alloc(64);
      reused = !seen.insert(p).second;
      alloc_->Free(p);
    }
    EXPECT_TRUE(reused) << "freed blocks never recycled";
  });
}

TEST_P(AllocatorTest, CrossThreadFree) {
  void* p = nullptr;
  RunAs(0, [&] { p = alloc_->Alloc(128); });
  RunAs(9, [&] { alloc_->Free(p); });           // different node
  RunAs(3, [&] {
    void* q = alloc_->Alloc(128);
    EXPECT_NE(q, nullptr);
    alloc_->Free(q);
  });
  EXPECT_EQ(alloc_->stats().requested_live, 0u);
}

TEST_P(AllocatorTest, LargeObjects) {
  RunAs(0, [&] {
    char* big = static_cast<char*>(alloc_->Alloc(3u << 20));
    std::memset(big, 0x5A, 3u << 20);
    char* big2 = static_cast<char*>(alloc_->Alloc(3u << 20));
    EXPECT_TRUE(big + (3u << 20) <= big2 || big2 + (3u << 20) <= big);
    alloc_->Free(big);
    alloc_->Free(big2);
    EXPECT_EQ(alloc_->stats().requested_live, 0u);
  });
}

TEST_P(AllocatorTest, StatsTrackPeak) {
  RunAs(0, [&] {
    void* a = alloc_->Alloc(1000);
    void* b = alloc_->Alloc(1000);
    uint64_t peak = alloc_->stats().requested_peak;
    EXPECT_GE(peak, 2000u);
    alloc_->Free(a);
    alloc_->Free(b);
    EXPECT_EQ(alloc_->stats().requested_peak, peak);  // peak is sticky
    EXPECT_EQ(alloc_->stats().requested_live, 0u);
    EXPECT_EQ(alloc_->stats().allocs, alloc_->stats().frees);
  });
}

TEST_P(AllocatorTest, ZeroAndNullAreSafe) {
  RunAs(0, [&] {
    void* p = alloc_->Alloc(0);
    EXPECT_NE(p, nullptr);
    alloc_->Free(p);
    alloc_->Free(nullptr);  // no-op
  });
}

INSTANTIATE_TEST_SUITE_P(AllAllocators, AllocatorTest,
                         ::testing::Values("ptmalloc", "jemalloc",
                                           "tcmalloc", "hoard", "tbbmalloc",
                                           "supermalloc", "mcmalloc"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace alloc
}  // namespace numalab
