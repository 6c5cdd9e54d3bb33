// Unit tests for the bandwidth contention model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "src/common/rng.h"
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

// Reserve memoizes its delay on (bytes, previous-epoch bytes, max_delay).
// A reference that recomputes every delay from scratch (the epoch
// accounting written out again, no memo) must agree on every call across
// epoch rolls, idle gaps, stale accesses from a lagging clock, Book calls
// and interleaved Inject-style reservations (max_delay 0).
class FreshQueue {
 public:
  explicit FreshQueue(double bpc) : bpc_(bpc) {}
  uint64_t Reserve(uint64_t now, uint64_t bytes, uint64_t max_delay) {
    Book(now, bytes);
    double capacity = bpc_ * static_cast<double>(ResourceQueue::kEpochCycles);
    double rho = std::min(static_cast<double>(prev_) / capacity, 0.97);
    double delay = static_cast<double>(bytes) / bpc_ * rho / (1.0 - rho);
    return std::min(static_cast<uint64_t>(delay), max_delay);
  }
  void Book(uint64_t now, uint64_t bytes) {
    uint64_t epoch = now / ResourceQueue::kEpochCycles;
    if (epoch == epoch_ + 1) {
      prev_ = cur_;
      cur_ = 0;
      epoch_ = epoch;
    } else if (epoch > epoch_) {
      prev_ = 0;
      cur_ = 0;
      epoch_ = epoch;
    }
    cur_ += bytes;
  }

 private:
  double bpc_;
  uint64_t epoch_ = 0, cur_ = 0, prev_ = 0;
};

TEST(ResourceQueue, MemoizedDelayEqualsFreshComputation) {
  for (double bpc : {0.5, 2.0, 7.3}) {
    ResourceQueue q(bpc);
    FreshQueue ref(bpc);
    Rng rng(17);
    uint64_t now = 0, nonzero = 0, distinct_epochs_with_delay = 0;
    uint64_t last_epoch_with_delay = ~0ULL;
    const uint64_t kBytes[] = {64, 64, 64, 64, 128, 4096, 0};
    const uint64_t kMax[] = {4000, 4000, 4000, 20000, 123, 0};
    for (int i = 0; i < 200000; ++i) {
      uint64_t r = rng.Uniform(1000);
      uint64_t at = now;
      if (r < 2) {
        now += 3 * ResourceQueue::kEpochCycles;  // idle gap
      } else if (r < 12 && now >= ResourceQueue::kEpochCycles) {
        at = now - ResourceQueue::kEpochCycles;  // lagging thread: stale
      } else {
        now += rng.Uniform(40);
      }
      uint64_t bytes = kBytes[rng.Uniform(7)];
      uint64_t max_delay = kMax[rng.Uniform(6)];
      if (rng.Uniform(50) == 0) {
        q.Book(at, bytes * 8);
        ref.Book(at, bytes * 8);
        continue;
      }
      uint64_t got = q.Reserve(at, bytes, max_delay);
      ASSERT_EQ(got, ref.Reserve(at, bytes, max_delay))
          << "bpc " << bpc << " op " << i;
      if (got != 0) {
        ++nonzero;
        uint64_t e = at / ResourceQueue::kEpochCycles;
        if (e != last_epoch_with_delay) ++distinct_epochs_with_delay;
        last_epoch_with_delay = e;
      }
    }
    // The sequence must exercise many different utilizations.
    EXPECT_GT(nonzero, 1000u) << bpc;
    EXPECT_GT(distinct_epochs_with_delay, 10u) << bpc;
  }
}

}  // namespace
}  // namespace mem
}  // namespace numalab
