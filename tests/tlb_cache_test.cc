// Unit tests for the TLB and cache tag-array models.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/caches.h"
#include "src/mem/fastmod.h"
#include "src/mem/tlb.h"
#include "src/topology/machine.h"

namespace numalab {
namespace mem {
namespace {

TEST(Tlb, HitAfterInsert) {
  Tlb tlb(topology::MachineA());
  EXPECT_FALSE(tlb.Lookup(0x1000));
  tlb.Insert(0x1000, /*huge=*/false);
  EXPECT_TRUE(tlb.Lookup(0x1000));
  EXPECT_TRUE(tlb.Lookup(0x1fff));   // same 4K page
  EXPECT_FALSE(tlb.Lookup(0x2000));  // next page
}

TEST(Tlb, HugeEntryCoversTwoMegabytes) {
  Tlb tlb(topology::MachineA());
  tlb.Insert(5 * kHugePageBytes + 12345, /*huge=*/true);
  EXPECT_TRUE(tlb.Lookup(5 * kHugePageBytes));
  EXPECT_TRUE(tlb.Lookup(6 * kHugePageBytes - 1));
  EXPECT_FALSE(tlb.Lookup(6 * kHugePageBytes));
}

TEST(Tlb, CapacityEvictsUnderPressure) {
  // Machine A: 32+512 4K entries. A working set of 10x that cannot all hit.
  Tlb tlb(topology::MachineA());
  const uint64_t pages = 5440;
  for (uint64_t p = 0; p < pages; ++p) {
    tlb.Insert(p * kSmallPageBytes, false);
  }
  uint64_t hits = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    if (tlb.Lookup(p * kSmallPageBytes)) ++hits;
  }
  EXPECT_LT(hits, pages / 2);
}

TEST(Tlb, InvalidateAndFlush) {
  Tlb tlb(topology::MachineB());
  tlb.Insert(0x4000, false);
  tlb.Invalidate(0x4000);
  EXPECT_FALSE(tlb.Lookup(0x4000));
  tlb.Insert(0x4000, false);
  tlb.Insert(0x8000, false);
  tlb.Flush();
  EXPECT_FALSE(tlb.Lookup(0x4000));
  EXPECT_FALSE(tlb.Lookup(0x8000));
}

TEST(LineCache, ProbeInsert) {
  TagArray c((1 << 16) / kCacheLineBytes);
  EXPECT_FALSE(c.Probe(42));
  c.Insert(42);
  EXPECT_TRUE(c.Probe(42));
  c.Flush();
  EXPECT_FALSE(c.Probe(42));
}

TEST(LineCache, WorkingSetBeyondCapacityMisses) {
  TagArray small(64);  // 64 lines
  for (uint64_t l = 0; l < 640; ++l) small.Insert(l);
  uint64_t hits = 0;
  for (uint64_t l = 0; l < 640; ++l) {
    if (small.Probe(l)) ++hits;
  }
  EXPECT_LT(hits, 160u);  // most of the set was evicted
}

TEST(CacheModel, PerCoreAndPerNodeInstances) {
  topology::Machine m = topology::MachineB();
  CacheModel cm(m);
  cm.Private(0).Insert(7);
  EXPECT_TRUE(cm.Private(0).Probe(7));
  EXPECT_FALSE(cm.Private(1).Probe(7));  // private caches are private
  cm.Llc(2).Insert(9);
  EXPECT_TRUE(cm.Llc(2).Probe(9));
  EXPECT_FALSE(cm.Llc(3).Probe(9));
}

// FastMod32::Mod is `%` for every dividend below 2^32: the power-of-two
// divisors (1 included) take the mask, the rest the multiply-shift.
TEST(FastMod32, EqualsRemainderForPowerOfTwoAndOtherDivisors) {
  std::vector<uint32_t> divisors = {1,          2,          3,      7,
                                    64,         1000,       1024,   4096,
                                    12288,      32768,      65535,  65536,
                                    1u << 31,   (1u << 31) + 1,     UINT32_MAX};
  Rng rng(11);
  for (int i = 0; i < 32; ++i) {
    divisors.push_back(static_cast<uint32_t>(rng.Next()) | 1u);
    divisors.push_back(1u << rng.Uniform(32));
  }
  for (uint32_t d : divisors) {
    FastMod32 m(d);
    std::vector<uint64_t> xs = {0, 1, d - 1ULL, d, d + 1ULL, 2ULL * d,
                                UINT32_MAX, UINT32_MAX - 1ULL};
    for (int i = 0; i < 2000; ++i) xs.push_back(rng.Next() >> 32);
    for (uint64_t x : xs) {
      if (x > UINT32_MAX) continue;  // 2 * d may pass 2^32
      ASSERT_EQ(m.Mod(x), x % d) << "x=" << x << " d=" << d;
    }
  }
}

// Tags are stored in 32 bits: every tag up to kMaxTag (the slab's line
// numbers included) misses in a fresh or flushed array and hits once
// inserted; kMaxTag sits below the empty marker.
TEST(LineCache, ThirtyTwoBitTagsKeepEveryAnswer) {
  TagArray c(4096);
  Rng rng(5);
  std::vector<uint64_t> tags = {0, 1, TagArray::kMaxTag, TagArray::kMaxTag - 1};
  for (int i = 0; i < 64; ++i) tags.push_back(rng.Uniform(TagArray::kMaxTag));
  for (int round = 0; round < 2; ++round) {
    for (uint64_t t : tags) EXPECT_FALSE(c.Probe(t)) << "tag " << t;
    for (uint64_t t : tags) {
      c.Insert(t);
      EXPECT_TRUE(c.Probe(t)) << "tag " << t;
      c.Invalidate(t);
      EXPECT_FALSE(c.Probe(t)) << "tag " << t;
      c.Insert(t);
    }
    c.Flush();
  }
}

// The 2M probe is skipped only while no 2M entry can be present. A
// reference TLB that always probes both arrays must answer every lookup
// the same way across 2M inserts, Invalidate of one of several huge pages,
// Flush, 4K-only use afterwards, and 2M inserts after a Flush.
class RefTlb {
 public:
  explicit RefTlb(const topology::Machine& m)
      : t4k_(Entries(m.tlb_4k())), t2m_(Entries(m.tlb_2m())) {}
  bool Lookup(uint64_t a) const {
    return t2m_.Probe(a / kHugePageBytes) || t4k_.Probe(a / kSmallPageBytes);
  }
  void Insert(uint64_t a, bool huge) {
    if (huge) {
      t2m_.Insert(a / kHugePageBytes);
    } else {
      t4k_.Insert(a / kSmallPageBytes);
    }
  }
  void Invalidate(uint64_t a) {
    t2m_.Invalidate(a / kHugePageBytes);
    t4k_.Invalidate(a / kSmallPageBytes);
  }
  void Flush() {
    t4k_.Flush();
    t2m_.Flush();
  }

 private:
  static size_t Entries(const topology::TlbSpec& t) {
    return static_cast<size_t>(t.l1_entries + t.l2_entries);
  }
  TagArray t4k_;
  TagArray t2m_;
};

TEST(Tlb, SkippedHugeProbeMatchesAlwaysProbingReference) {
  for (const topology::Machine& m :
       {topology::MachineA(), topology::MachineB(), topology::MachineC()}) {
    Tlb tlb(m);
    RefTlb ref(m);
    Rng rng(3);
    uint64_t lookups = 0, hits = 0;
    auto check = [&](uint64_t a) {
      bool got = tlb.Lookup(a);
      ASSERT_EQ(got, ref.Lookup(a)) << m.name() << " addr " << a;
      ++lookups;
      hits += got ? 1 : 0;
    };
    auto addr = [&]() { return rng.Uniform(64 * kHugePageBytes); };
    // 4K-only use on a fresh TLB.
    for (int i = 0; i < 200; ++i) {
      uint64_t a = addr();
      check(a);
      tlb.Insert(a, false);
      ref.Insert(a, false);
      check(a);
    }
    // Two huge pages; invalidating one must keep the other hitting.
    tlb.Insert(3 * kHugePageBytes, true);
    ref.Insert(3 * kHugePageBytes, true);
    tlb.Insert(40 * kHugePageBytes, true);
    ref.Insert(40 * kHugePageBytes, true);
    tlb.Invalidate(3 * kHugePageBytes);
    ref.Invalidate(3 * kHugePageBytes);
    EXPECT_TRUE(tlb.Lookup(40 * kHugePageBytes + 12345));
    check(40 * kHugePageBytes + 12345);
    check(3 * kHugePageBytes + 4096);
    // Flush, then 4K-only use over the former huge ranges.
    tlb.Flush();
    ref.Flush();
    EXPECT_FALSE(tlb.Lookup(40 * kHugePageBytes + 12345));
    for (int i = 0; i < 200; ++i) {
      uint64_t a = 40 * kHugePageBytes + rng.Uniform(kHugePageBytes);
      check(a);
      tlb.Insert(a, false);
      ref.Insert(a, false);
      check(a);
    }
    // A 2M insert after the Flush must hit again.
    tlb.Insert(7 * kHugePageBytes, true);
    ref.Insert(7 * kHugePageBytes, true);
    EXPECT_TRUE(tlb.Lookup(7 * kHugePageBytes + 99));
    // Random mix of every operation.
    for (int i = 0; i < 5000; ++i) {
      uint64_t a = addr();
      switch (rng.Uniform(8)) {
        case 0:
          tlb.Insert(a, true);
          ref.Insert(a, true);
          break;
        case 1:
          tlb.Invalidate(a);
          ref.Invalidate(a);
          break;
        case 2:
          if (rng.Uniform(20) == 0) {
            tlb.Flush();
            ref.Flush();
          }
          break;
        default:
          tlb.Insert(a, false);
          ref.Insert(a, false);
          break;
      }
      check(addr());
      check(a);
    }
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, lookups);
  }
}

}  // namespace
}  // namespace mem
}  // namespace numalab
