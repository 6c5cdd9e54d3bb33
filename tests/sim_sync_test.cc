// Deterministic release and cycle-charging tests for SimBarrier: the exact
// kLockHandoffCycles charge and the release clock are contract, not
// implementation detail — the race detector hangs its happens-before edge
// off the release point, and the golden benchmark numbers depend on the
// charge.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/engine.h"
#include "src/sim/sync.h"

namespace numalab {
namespace sim {
namespace {

Task ArriveAfter(VThread* vt, SimBarrier* b, uint64_t work,
                 uint64_t* clock_after) {
  vt->Charge(work);
  co_await b->Arrive();
  *clock_after = vt->clock;
}

TEST(SimBarrierCharging, ReleasesEveryoneAtMaxArrivalPlusHandoff) {
  Engine e;
  SimBarrier b(&e, 3);
  uint64_t after[3] = {0, 0, 0};
  for (int t = 0; t < 3; ++t) {
    e.Spawn("t", t, [&, t](VThread* vt) {
      return ArriveAfter(vt, &b, static_cast<uint64_t>(1000 * (t + 1)),
                         &after[t]);
    });
  }
  e.Run();
  // Slowest arrival is 3000; everyone leaves at exactly 3000 + handoff.
  for (uint64_t c : after) EXPECT_EQ(c, 3000 + kLockHandoffCycles);
  EXPECT_EQ(b.pending(), 0);
}

Task PhasedArrivals(VThread* vt, SimBarrier* b, std::vector<uint64_t>* out,
                    int tag) {
  for (int phase = 0; phase < 3; ++phase) {
    vt->Charge(static_cast<uint64_t>(100 * (tag + 1)));
    co_await b->Arrive();
    out->push_back(vt->clock);
  }
}

TEST(SimBarrierCharging, ReusableAndDeterministicAcrossPhases) {
  auto run = [] {
    Engine e(/*quantum=*/100);
    SimBarrier b(&e, 2);
    std::vector<uint64_t> clocks;
    for (int t = 0; t < 2; ++t) {
      e.Spawn("t", t, [&, t](VThread* vt) {
        return PhasedArrivals(vt, &b, &clocks, t);
      });
    }
    e.Run();
    return clocks;
  };
  std::vector<uint64_t> a = run();
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a, run());
  // Both threads leave each phase at the same clock (lockstep phases).
  // Records arrive in wake order; each consecutive pair shares a clock.
  for (size_t i = 0; i + 1 < a.size(); i += 2) EXPECT_EQ(a[i], a[i + 1]);
}

}  // namespace
}  // namespace sim
}  // namespace numalab
