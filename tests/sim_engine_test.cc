// Unit tests for the discrete-event engine: scheduling order, checkpoint
// quantum, events, mutexes, barriers and the VirtualLock model.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/engine.h"
#include "src/sim/sync.h"

namespace numalab {
namespace sim {
namespace {

Task ChargeNTimes(VThread* vt, Engine* engine, uint64_t per_step, int steps,
                  std::vector<int>* order, int tag) {
  for (int i = 0; i < steps; ++i) {
    vt->Charge(per_step);
    if (order != nullptr) order->push_back(tag);
    co_await engine->Checkpoint();
  }
}

TEST(Engine, MakespanIsMaxClock) {
  Engine e;
  e.Spawn("a", 0, [&](VThread* vt) {
    return ChargeNTimes(vt, &e, 1000, 5, nullptr, 0);
  });
  e.Spawn("b", 1, [&](VThread* vt) {
    return ChargeNTimes(vt, &e, 3000, 5, nullptr, 1);
  });
  EXPECT_EQ(e.Run(), 15000u);
}

TEST(Engine, LowestClockRunsFirst) {
  Engine e(/*quantum=*/1);  // suspend at every checkpoint
  std::vector<int> order;
  e.Spawn("slow", 0, [&](VThread* vt) {
    return ChargeNTimes(vt, &e, 100, 3, &order, 0);
  });
  e.Spawn("fast", 1, [&](VThread* vt) {
    return ChargeNTimes(vt, &e, 10, 30, &order, 1);
  });
  e.Run();
  // The fast thread should interleave ~10 steps per slow step; check the
  // first slow step is not immediately followed by another slow step.
  ASSERT_GE(order.size(), 33u);
  int slow_positions = 0;
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    if (order[i] == 0 && order[i + 1] == 0) ++slow_positions;
  }
  EXPECT_LE(slow_positions, 1);  // never back-to-back except possibly at end
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e(/*quantum=*/50);  // fine quantum so threads yield around events
  std::vector<int> fired;
  e.ScheduleEvent(500, [&] { fired.push_back(2); });
  e.ScheduleEvent(100, [&] { fired.push_back(1); });
  e.Spawn("w", 0, [&](VThread* vt) {
    return ChargeNTimes(vt, &e, 200, 5, nullptr, 0);
  });
  e.Run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 2);
}

TEST(Engine, SameTimestampEventsDrainInSeqOrder) {
  // The batched event drain (engine.cc) pops every event due before the
  // next thread resume in one inner loop, including events scheduled *by*
  // a draining event at the same timestamp: (when, seq) order must be
  // exactly what the serial one-event-per-outer-iteration loop produced.
  Engine e(/*quantum=*/100);
  std::vector<int> order;
  e.ScheduleEvent(100, [&] {
    order.push_back(1);
    e.ScheduleEvent(100, [&] { order.push_back(3); });
  });
  e.ScheduleEvent(100, [&] { order.push_back(2); });
  e.Spawn("w", 0, [&](VThread* vt) {
    return ChargeNTimes(vt, &e, 300, 3, &order, 7);
  });
  e.Run();
  // Thread runs its first step (clock 0 -> 300), then all three events at
  // t=100 drain in seq order, then the remaining thread steps.
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], 7);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(order[3], 3);
  EXPECT_EQ(order[4], 7);
  EXPECT_EQ(order[5], 7);
}

/// A six-event series on reserved seqs, with ties inside the series (200,
/// 300) and against fresh-seq events. The second member schedules a
/// fresh-seq event of its own when it fires.
struct ReservedSeries {
  static constexpr int kN = 6;
  static constexpr uint64_t kWhen[kN] = {100, 200, 200, 300, 300, 500};
  Engine* e;
  std::vector<int>* order;
  uint64_t seq0;

  /// Schedules member i; `chain` makes it schedule member i+1 as it fires.
  void Schedule(int i, bool chain) {
    e->ScheduleEvent(kWhen[i], seq0 + static_cast<uint64_t>(i),
                     [this, i, chain] {
                       if (chain && i + 1 < kN) Schedule(i + 1, true);
                       order->push_back(i);
                       if (i == 1) {
                         e->ScheduleEvent(300, [o = order] {
                           o->push_back(20);
                         });
                       }
                     });
  }
};

/// Fires the series alongside a stepping thread, pushed either all at
/// reservation time or lazily, and returns the interleaved firing order
/// (thread steps recorded as 99).
std::vector<int> RunReservedSeries(bool lazy) {
  Engine e(/*quantum=*/50);
  std::vector<int> order;
  e.ScheduleEvent(300, [&] { order.push_back(-1); });  // before reserving
  ReservedSeries series{&e, &order, e.ReserveEventSeqs(ReservedSeries::kN)};
  if (lazy) {
    series.Schedule(0, /*chain=*/true);
  } else {
    for (int i = 0; i < ReservedSeries::kN; ++i) series.Schedule(i, false);
  }
  e.ScheduleEvent(200, [&] { order.push_back(10); });  // after reserving
  e.ScheduleEvent(300, [&] { order.push_back(11); });
  e.Spawn("w", 0, [&](VThread* vt) {
    return ChargeNTimes(vt, &e, 40, 16, &order, 99);
  });
  e.Run();
  return order;
}

TEST(Engine, ReservedSeqEventsPopInUpfrontOrder) {
  std::vector<int> upfront = RunReservedSeries(/*lazy=*/false);
  std::vector<int> lazy = RunReservedSeries(/*lazy=*/true);
  EXPECT_EQ(lazy, upfront);
  // (when, seq) order: a reserved seq ranks by reservation time, ahead of
  // every event scheduled after the reservation.
  std::vector<int> events;
  for (int x : upfront) {
    if (x != 99) events.push_back(x);
  }
  EXPECT_EQ(events, (std::vector<int>{0, 1, 2, 10, -1, 3, 4, 11, 20, 5}));
}

TEST(Engine, PendingEventsCountsUnfiredEvents) {
  Engine e(/*quantum=*/1);
  EXPECT_EQ(e.pending_events(), 0u);
  uint64_t seq = e.ReserveEventSeqs(2);
  e.ScheduleEvent(10, seq + 1, [] {});
  e.ScheduleEvent(1'000, [] {});
  EXPECT_EQ(e.pending_events(), 2u);
  e.Spawn("w", 0, [&](VThread* vt) {
    return ChargeNTimes(vt, &e, 15, 2, nullptr, 0);
  });
  e.Run();
  EXPECT_EQ(e.pending_events(), 1u);  // t=1000 lies past the last step
}

struct BlockAwaiter {
  Engine* e;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<>) noexcept { e->BlockCurrent(); }
  void await_resume() const noexcept {}
};

Task BlockThenRecord(VThread* vt, Engine* e, std::vector<int>* order,
                     int tag) {
  (void)vt;
  co_await BlockAwaiter{e};
  order->push_back(tag);
}

TEST(Engine, EventWakingLaggingThreadPreemptsLaterEvents) {
  // An event callback may wake a thread whose clock lands *behind* the next
  // queued event; the drain loop must hand control back to that thread
  // before firing the later event, exactly like the old outer loop did.
  Engine e(/*quantum=*/50);
  std::vector<int> order;
  VThread* blocked = e.Spawn("blocked", 0, [&](VThread* vt) {
    return BlockThenRecord(vt, &e, &order, 9);
  });
  e.Spawn("runner", 1, [&](VThread* vt) {
    return ChargeNTimes(vt, &e, 60, 3, &order, 7);
  });
  e.ScheduleEvent(100, [&] {
    order.push_back(1);
    e.Wake(blocked, 50);  // woken clock 50: behind the next event at 100
  });
  e.ScheduleEvent(100, [&] { order.push_back(2); });
  e.Run();
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], 7);  // runner 0 -> 60
  EXPECT_EQ(order[1], 7);  // runner 60 -> 120
  EXPECT_EQ(order[2], 1);  // first event at t=100 wakes `blocked` at 50
  EXPECT_EQ(order[3], 9);  // woken thread (clock 50) preempts event 2
  EXPECT_EQ(order[4], 2);  // now the second t=100 event
  EXPECT_EQ(order[5], 7);  // runner 120 -> 180
}

TEST(EventCallback, MoveTransfersCallableOnce) {
  int calls = 0;
  EventCallback a([&calls] { ++calls; });
  EXPECT_TRUE(static_cast<bool>(a));
  EventCallback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  b();
  EXPECT_EQ(calls, 1);
  EventCallback c;
  EXPECT_FALSE(static_cast<bool>(c));
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(Engine, EventsDoNotFireAfterAllThreadsDone) {
  Engine e;
  int fired = 0;
  e.ScheduleEvent(1'000'000, [&] { ++fired; });
  e.Spawn("w", 0, [&](VThread* vt) {
    return ChargeNTimes(vt, &e, 10, 1, nullptr, 0);
  });
  e.Run();
  EXPECT_EQ(fired, 0);
}

Task LockUnlock(VThread* vt, SimMutex* m, uint64_t hold,
                std::vector<int>* order, int tag) {
  co_await m->Lock();
  order->push_back(tag);
  vt->Charge(hold);
  m->Unlock();
}

TEST(SimMutexTest, FifoAndExclusive) {
  Engine e(/*quantum=*/1);
  SimMutex m(&e);
  std::vector<int> order;
  for (int t = 0; t < 4; ++t) {
    e.Spawn("t", t, [&, t](VThread* vt) {
      return LockUnlock(vt, &m, 1000, &order, t);
    });
  }
  uint64_t makespan = e.Run();
  EXPECT_EQ(order.size(), 4u);
  // Fully serialized: 4 x 1000 cycles of critical section plus handoffs.
  EXPECT_GE(makespan, 4000u);
  EXPECT_FALSE(m.held());
}

Task ArriveOnce(VThread* vt, SimBarrier* b, uint64_t work) {
  vt->Charge(work);
  co_await b->Arrive();
  vt->Charge(1);
}

TEST(SimBarrierTest, ReleasesAtMaxClock) {
  Engine e;
  SimBarrier b(&e, 3);
  std::vector<VThread*> vts;
  for (int t = 0; t < 3; ++t) {
    vts.push_back(e.Spawn("t", t, [&, t](VThread* vt) {
      return ArriveOnce(vt, &b, static_cast<uint64_t>(1000 * (t + 1)));
    }));
  }
  uint64_t makespan = e.Run();
  // Everyone leaves at >= the slowest arrival (3000) + handoff.
  for (VThread* vt : vts) EXPECT_GE(vt->clock, 3000u);
  EXPECT_GE(makespan, 3001u);
}

TEST(VirtualLockTest, UncontendedIsCheap) {
  VirtualLock lock;
  EXPECT_EQ(lock.Acquire(1000, 50), kLockAcquireCycles);
  // Re-acquire long after release: still uncontended.
  EXPECT_EQ(lock.Acquire(5000, 50), kLockAcquireCycles);
  EXPECT_EQ(lock.contended_acquires, 0u);
}

TEST(VirtualLockTest, QueueingDelayAndCap) {
  VirtualLock lock;
  lock.Acquire(0, 100);
  // Second acquire at t=0 waits for the first's hold.
  uint64_t w = lock.Acquire(0, 100);
  EXPECT_GE(w, 100u);
  EXPECT_EQ(lock.contended_acquires, 1u);
  // A wildly stale acquire is capped at ~50 holds, not the full gap.
  VirtualLock lock2;
  lock2.free_at = 10'000'000;
  uint64_t capped = lock2.Acquire(0, 100);
  EXPECT_LE(capped, 50 * 100 + kLockHandoffCycles);
}

TEST(Engine, DeterministicInterleaving) {
  auto run = [] {
    Engine e(100);
    std::vector<int> order;
    for (int t = 0; t < 3; ++t) {
      e.Spawn("t", t, [&, t](VThread* vt) {
        return ChargeNTimes(vt, &e, static_cast<uint64_t>(37 + t * 13), 50,
                            &order, t);
      });
    }
    e.Run();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace sim
}  // namespace numalab
