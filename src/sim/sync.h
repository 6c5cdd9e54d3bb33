// Synchronization primitives for virtual threads.
//
// Two families:
//  * Suspending primitives (SimMutex, SimBarrier) — used by workload code;
//    they block the virtual thread and hand control back to the engine, so
//    waiting threads consume no virtual cycles while parked (like a futex).
//  * VirtualLock — a non-suspending analytical lock used *inside* simulated
//    components that are called from plain (non-coroutine) functions, e.g.
//    allocator arenas. It models a lock as a reservation on the time line:
//    an acquire at time t on a lock free at time f costs max(0, f - t) of
//    queueing delay plus the critical-section hold. Because the engine keeps
//    thread clocks within one quantum of each other, this reproduces lock
//    convoys and contention collapse without suspension machinery.

#ifndef NUMALAB_SIM_SYNC_H_
#define NUMALAB_SIM_SYNC_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/sanity/race_detector.h"
#include "src/sim/engine.h"

namespace numalab {
namespace sim {

/// Cycles to acquire an uncontended lock (atomic RMW + fence).
inline constexpr uint64_t kLockAcquireCycles = 24;
/// Cycles to hand a lock (and its cache line) to a waiter on another core.
inline constexpr uint64_t kLockHandoffCycles = 120;

/// \brief A mutex for virtual threads. FIFO wake-up, deterministic.
///
/// A capability for clang's thread-safety analysis: `co_await m.Lock()`
/// acquires, `m.Unlock()` releases, and every path between them must
/// balance. The acquisition really completes inside the co_await (the
/// awaiter may suspend), but on the single host thread the caller observes
/// the lock as held from the Lock() call on, which is what the annotation
/// states.
class NUMALAB_CAPABILITY("SimMutex") SimMutex {
 public:
  explicit SimMutex(Engine* engine) : engine_(engine) {}

  struct LockAwaiter {
    SimMutex* m;
    bool await_ready() const noexcept {
      VThread* vt = m->engine_->current();
      if (!m->held_) {
        m->held_ = true;
        // Virtual-time exclusion: even when no thread is *executing* inside
        // the critical section right now, a previous owner may have held it
        // up to `vfree_at_` on the virtual time line.
        if (m->vfree_at_ > vt->clock) {
          uint64_t wait = m->vfree_at_ - vt->clock;
          vt->Charge(wait);
          vt->counters.lock_wait_cycles += wait;
        }
        vt->Charge(kLockAcquireCycles);
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<>) noexcept {
      VThread* vt = m->engine_->current();
      m->waiters_.push_back(vt);
      m->engine_->BlockCurrent();
    }
    void await_resume() const noexcept {
      // Acquire edge: the releasing owner's clock (published in Unlock)
      // happens-before everything after this lock acquisition. Runs on both
      // the uncontended fast path and after a hand-off wake.
      if (sanity::RaceDetector* rd = m->engine_->race()) {
        rd->OnAcquire(m->engine_->current()->id, m);
      }
    }
  };

  /// co_await m.Lock();
  LockAwaiter Lock() NUMALAB_ACQUIRE() NUMALAB_NO_THREAD_SAFETY_ANALYSIS {
    return LockAwaiter{this};
  }

  /// Releases the lock at the caller's current clock; the longest-waiting
  /// thread (if any) is woken after a cache-line handoff delay.
  void Unlock() NUMALAB_RELEASE() NUMALAB_NO_THREAD_SAFETY_ANALYSIS {
    VThread* vt = engine_->current();
    if (sanity::RaceDetector* rd = engine_->race()) {
      rd->OnRelease(vt->id, this);  // before any waiter can acquire
    }
    vfree_at_ = vt->clock;
    if (!waiters_.empty()) {
      VThread* next = waiters_.front();
      waiters_.pop_front();
      uint64_t wake_at = vt->clock + kLockHandoffCycles;
      uint64_t waited_from = next->clock;
      engine_->Wake(next, wake_at);
      next->counters.lock_wait_cycles +=
          next->clock > waited_from ? next->clock - waited_from : 0;
      // held_ stays true; ownership passed directly.
    } else {
      held_ = false;
    }
  }

  bool held() const { return held_; }

 private:
  Engine* engine_;
  bool held_ = false;
  uint64_t vfree_at_ = 0;  ///< virtual time the last owner released at
  std::deque<VThread*> waiters_;
};

/// \brief A reusable barrier for `n` virtual threads.
class SimBarrier {
 public:
  SimBarrier(Engine* engine, int n) : engine_(engine), n_(n) {}

  struct ArriveAwaiter {
    SimBarrier* b;
    bool await_ready() const noexcept {
      VThread* vt = b->engine_->current();
      if (static_cast<int>(b->waiting_.size()) == b->n_ - 1) {
        // Barrier edge: everything any participant did before arriving
        // happens-before everything every participant does after release.
        if (sanity::RaceDetector* rd = b->engine_->race()) {
          std::vector<int> tids;
          tids.reserve(b->waiting_.size() + 1);
          for (VThread* w : b->waiting_) tids.push_back(w->id);
          tids.push_back(vt->id);
          rd->OnBarrier(b, tids);
        }
        // Last arrival: release everyone at the max clock seen.
        uint64_t release = vt->clock;
        for (VThread* w : b->waiting_) release = std::max(release, w->clock);
        release += kLockHandoffCycles;
        for (VThread* w : b->waiting_) b->engine_->Wake(w, release);
        b->waiting_.clear();
        vt->clock = std::max(vt->clock, release);
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<>) noexcept {
      VThread* vt = b->engine_->current();
      b->waiting_.push_back(vt);
      b->engine_->BlockCurrent();
    }
    void await_resume() const noexcept {}
  };

  /// co_await barrier.Arrive();
  ArriveAwaiter Arrive() { return ArriveAwaiter{this}; }

  int pending() const { return static_cast<int>(waiting_.size()); }

 private:
  Engine* engine_;
  int n_;
  std::deque<VThread*> waiting_;
};

/// \brief Analytical (non-suspending) lock; see file comment.
///
/// A capability for clang's thread-safety analysis. Acquire() itself is
/// only the *timing* model (it reserves the lock on the virtual time line
/// and returns the queueing delay to charge); the critical section — the
/// span other threads' conflicting accesses must be ordered against — is
/// delimited by the Env::Lock / Env::LockReleased pair (Env::Lock calls
/// Acquire and charges the wait), which carry the
/// NUMALAB_ACQUIRE/NUMALAB_RELEASE annotations and feed the dynamic race
/// detector the same happens-before edge. The allocator models call
/// Acquire directly: their locks have their own timing path.
struct NUMALAB_CAPABILITY("VirtualLock") VirtualLock {
  uint64_t free_at = 0;
  uint64_t contended_acquires = 0;
  uint64_t total_acquires = 0;

  /// Reserves the lock for `hold` cycles starting no earlier than `now`.
  /// Returns the queueing delay the caller must charge (the hold itself is
  /// charged by the caller as part of its work). `handoff` is the
  /// cache-line transfer cost on a contended acquire — lower it for
  /// HTM-style synchronization that avoids lock-line bouncing.
  uint64_t Acquire(uint64_t now, uint64_t hold,
                   uint64_t handoff = kLockHandoffCycles) {
    ++total_acquires;
    uint64_t wait = free_at > now ? free_at - now : 0;
    if (wait > 0) ++contended_acquires;
    uint64_t start = std::max(free_at, now);
    free_at = start + hold;
    // A real queue cannot be longer than the thread count; bounding the
    // charged wait at ~50 queued holds also keeps bounded virtual-clock
    // skew from masquerading as contention.
    wait = std::min(wait, 50 * std::max<uint64_t>(hold, 1));
    return wait + (wait > 0 ? handoff : kLockAcquireCycles);
  }
};

}  // namespace sim
}  // namespace numalab

#endif  // NUMALAB_SIM_SYNC_H_
