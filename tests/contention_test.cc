// Unit tests for the bandwidth contention model.

#include <gtest/gtest.h>

#include "src/mem/contention.h"

namespace numalab {
namespace mem {
namespace {

TEST(ResourceQueue, IdleResourceAddsNoDelay) {
  ResourceQueue q(2.0);
  // First epoch has no history: zero utilization, zero delay.
  EXPECT_EQ(q.Reserve(0, 64, 4000), 0u);
  EXPECT_EQ(q.Reserve(100, 64, 4000), 0u);
}

TEST(ResourceQueue, SaturationProducesDelay) {
  ResourceQueue q(1.0);  // 1 byte/cycle
  // Saturate epoch 0: book a full epoch's worth of bytes.
  q.Reserve(0, 60000, 4000);
  // Epoch 1 sees high utilization -> delays.
  uint64_t d = q.Reserve(1 << 16, 64, 4000);
  EXPECT_GT(d, 0u);
}

TEST(ResourceQueue, UtilizationDecaysAfterIdleGap) {
  ResourceQueue q(1.0);
  q.Reserve(0, 60000, 4000);
  // Skip several epochs: history resets, no delay.
  EXPECT_EQ(q.Reserve(10ULL << 16, 64, 4000), 0u);
}

TEST(ResourceQueue, DelayGrowsWithUtilization) {
  ResourceQueue light(1.0), heavy(1.0);
  light.Reserve(0, 10000, 4000);   // ~15% of a 65536-cycle epoch
  heavy.Reserve(0, 60000, 4000);   // ~92%
  uint64_t dl = light.Reserve(1 << 16, 64, 4000);
  uint64_t dh = heavy.Reserve(1 << 16, 64, 4000);
  EXPECT_LT(dl, dh);
}

TEST(ResourceQueue, DelayIsCapped) {
  ResourceQueue q(0.01);  // pathologically slow resource
  q.Reserve(0, 60000, 4000);
  EXPECT_LE(q.Reserve(1 << 16, 6400, 123), 123u);
}

TEST(ContentionModel, RemoteChargesLinksToo) {
  topology::Machine m = topology::MachineA();
  ContentionModel cm(m);
  // Saturate the destination controller and the route's links.
  for (int i = 0; i < 2000; ++i) cm.Charge(m, 0, 1, 0, 64, 4000);
  uint64_t local = cm.Charge(m, 1, 1, 1 << 16, 64, 4000);
  uint64_t remote = cm.Charge(m, 0, 1, 1 << 16, 64, 4000);
  // The booked demand saturated the destination controller, and the remote
  // access additionally queues on the congested link.
  EXPECT_GT(local, 0u);
  EXPECT_GE(remote, local);
}

TEST(ContentionModel, InjectAddsBackgroundLoad) {
  topology::Machine m = topology::MachineA();
  ContentionModel cm(m);
  cm.Inject(2, 0, 1 << 20);  // a huge-page migration's worth of copying
  uint64_t d = cm.Charge(m, 2, 2, 1 << 16, 64, 4000);
  EXPECT_GT(d, 0u);
}

}  // namespace
}  // namespace mem
}  // namespace numalab
