// Unit tests for the TLB and cache tag-array models.

#include <gtest/gtest.h>

#include "src/mem/caches.h"
#include "src/mem/tlb.h"

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

}  // namespace
}  // namespace mem
}  // namespace numalab
