// Deterministic discrete-event simulation engine with virtual threads.
//
// numalab runs every workload on *virtual threads*: C++20 coroutines whose
// progress is measured in virtual cycles rather than wall time. The engine
// keeps a ready-heap ordered by (virtual clock, thread id) and always resumes
// the thread that is furthest behind, so thread clocks advance in near
// lockstep (skew bounded by the checkpoint quantum). Everything runs on one
// host thread, which makes runs bit-for-bit reproducible — the property the
// paper's real testbed lacks and the reason Fig. 3 needs ten runs.
//
// Workload code charges costs synchronously (VThread::Charge) and yields
// control at checkpoints:
//
//   sim::Task Worker(Env& env) {
//     for (...) {
//       ... charge accesses ...
//       co_await env.engine->Checkpoint();
//     }
//   }
//
// Timed callbacks (Engine::ScheduleEvent) model kernel daemons — the load
// balancer, AutoNUMA scans and khugepaged — which run interleaved with the
// threads in virtual-time order.
//
// WARNING: never make the thread body a coroutine *lambda*. A coroutine
// lambda's captures live in the closure object, not the coroutine frame; the
// closure dies when Spawn's factory returns and every later resume reads
// freed memory. Write a named coroutine function and have a plain lambda
// call it (function parameters are kept alive in the frame).

#ifndef NUMALAB_SIM_ENGINE_H_
#define NUMALAB_SIM_ENGINE_H_

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/perf/counters.h"
#include "src/sim/event_callback.h"

namespace numalab {
namespace sanity {
class RaceDetector;
}  // namespace sanity
namespace trace {
class TraceRecorder;
}  // namespace trace
namespace sim {

class Engine;
struct VThread;

/// \brief Coroutine type for virtual-thread bodies. The coroutine starts
/// suspended; Engine::Spawn owns the handle and destroys it on completion.
class Task {
 public:
  struct promise_type {
    Engine* engine = nullptr;
    VThread* vt = nullptr;

    // Coroutine frames are the per-spawn host allocation: benches build
    // thousands of short-lived engines, each spawning tens of threads.
    // Route frames through the engine free-list pool so completed frames
    // are recycled instead of round-tripping malloc. Purely a host-side
    // optimization; simulated output is unaffected.
    static void* operator new(size_t size) {
      return FreeListPool::Allocate(size);
    }
    static void operator delete(void* p, size_t size) {
      FreeListPool::Deallocate(p, size);
    }

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    // Final suspend keeps the frame alive so the engine can observe
    // completion and destroy the handle itself.
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle(h) {}

  std::coroutine_handle<promise_type> handle;
};

/// \brief State of a virtual thread.
enum class VThreadState { kReady, kRunning, kBlocked, kDone };

/// \brief A simulated software thread. Inherits pooled operator new/delete:
/// VThread objects are recycled across engines by the same free-list pool
/// as coroutine frames.
struct VThread : PooledNew {
  int id = -1;
  std::string name;
  uint64_t clock = 0;          ///< virtual cycle counter
  int hw_thread = 0;           ///< hardware thread it currently runs on
  double cycle_scale = 1.0;    ///< >1 when its core is oversubscribed
  VThreadState state = VThreadState::kReady;
  std::coroutine_handle<Task::promise_type> handle;
  perf::ThreadCounters counters;
  uint64_t run_until = 0;      ///< checkpoint quantum boundary
  Engine* engine = nullptr;

  /// Clock advance of one Charge(cycles): `cycles` inflated by the
  /// oversubscription factor, truncated once per call.
  uint64_t Scaled(uint64_t cycles) const {
    return static_cast<uint64_t>(static_cast<double>(cycles) * cycle_scale);
  }

  /// Exactly `n` Charge(cycles) calls in one step. Charge truncates once
  /// per call, so n of them advance the clock by n * Scaled(cycles); every
  /// bulk charge (the span path's runs of equal charges, Env::IdlePoll)
  /// rests on that identity.
  void ChargeRepeated(uint64_t cycles, uint64_t n) {
    uint64_t c = Scaled(cycles) * n;
    clock += c;
    counters.cycles += c;
  }

  /// Adds `cycles` of work, inflated by the oversubscription factor.
  void Charge(uint64_t cycles) { ChargeRepeated(cycles, 1); }
};

/// \brief Awaitable returned by Engine::Checkpoint().
struct CheckpointAwaiter {
  Engine* engine;
  bool await_ready() const noexcept;
  void await_suspend(std::coroutine_handle<> h) noexcept;
  void await_resume() const noexcept {}
};

/// \brief The discrete-event scheduler.
class Engine {
 public:
  /// \param quantum checkpoint quantum in cycles: a resumed thread keeps
  ///        running through checkpoints until its clock advances past the
  ///        quantum, bounding clock skew between threads. The skew bound is
  ///        what makes VirtualLock reservations honest, so keep it well
  ///        under typical lock service times x queue lengths.
  explicit Engine(uint64_t quantum = 4000) : quantum_(quantum) {}
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Creates a virtual thread. `factory` is invoked with the new VThread and
  /// must return the coroutine that implements the thread body. Templated so
  /// the factory is called directly — no std::function materialization on
  /// the spawn path.
  template <typename Factory>
  VThread* Spawn(const std::string& name, int hw_thread, Factory&& factory) {
    VThread* vt = CreateThread(name, hw_thread);
    AttachBody(vt, std::forward<Factory>(factory)(vt));
    return vt;
  }

  /// Schedules `fn` at absolute virtual time `when`. Events fire interleaved
  /// with threads in virtual-time order, but only while live threads remain.
  /// The callback is stored inline in the event (EventCallback): capture
  /// lists that would force a heap allocation fail to compile.
  void ScheduleEvent(uint64_t when, EventCallback fn);

  /// Reserves `n` consecutive event sequence numbers and returns the first.
  /// Events pop in (when, seq) order, a strict total order, so an event
  /// scheduled on a reserved seq at any time before it becomes the heap
  /// minimum pops exactly where it would have popped had it been scheduled
  /// at reservation time. That lets a long series (the serving layer's
  /// open-loop arrivals) be pushed lazily, each event scheduling its
  /// successor, with O(1) of it pending instead of the whole series.
  uint64_t ReserveEventSeqs(uint64_t n) {
    uint64_t first = event_seq_;
    event_seq_ += n;
    return first;
  }

  /// Starts a kernel daemon: `tick(now)` runs at virtual time `period`, and
  /// every tick that returns true is re-armed one period after the later of
  /// its own time and MinLiveClock(). The daemon keeps its own pace rather
  /// than a laggard thread's clock (which may be parked at a barrier), but
  /// never re-fires behind the slowest live thread. A tick that returns
  /// false ends the chain. Each re-arm draws its event seq at the end of the
  /// tick, after any event the tick itself scheduled.
  template <typename Tick>
  void SchedulePeriodic(uint64_t period, Tick tick) {
    ScheduleEvent(period, Periodic<Tick>{this, period, period, tick});
  }

  /// Schedules `fn` at `when` on a seq from an earlier ReserveEventSeqs
  /// (CHECKed). The caller must push it no later than the firing of any
  /// event or thread step it has to precede.
  void ScheduleEvent(uint64_t when, uint64_t seq, EventCallback fn);

  /// Runs until every spawned thread has completed, or until every live
  /// thread's clock has passed the deadline (see SetDeadline). Returns the
  /// makespan: the maximum thread clock.
  uint64_t Run();

  /// Virtual-cycle watchdog: once the *minimum* live thread clock exceeds
  /// `cycles`, Run() stops resuming threads, destroys the outstanding
  /// coroutine frames (while the rest of the simulation is still alive —
  /// frame locals may reference the allocator), and returns. 0 (the
  /// default) disables the watchdog.
  void SetDeadline(uint64_t cycles) { deadline_ = cycles; }
  bool deadline_exceeded() const { return deadline_exceeded_; }

  /// Thread currently executing (only valid inside coroutine bodies /
  /// allocator callbacks reached from them).
  VThread* current() const { return current_; }

  /// Clock of the current thread; 0 outside a coroutine (setup code).
  uint64_t Now() const { return current_ != nullptr ? current_->clock : 0; }

  /// Suspension point; see CheckpointAwaiter. Cheap when the quantum has not
  /// elapsed (no suspension).
  CheckpointAwaiter Checkpoint() { return CheckpointAwaiter{this}; }

  /// Virtual time visible to daemons: the minimum clock over live threads
  /// (or the last event time when no thread is live).
  uint64_t MinLiveClock() const;

  /// Wakes a blocked thread at max(vt->clock, at). Used by SimBarrier.
  void Wake(VThread* vt, uint64_t at);

  /// Marks the current thread blocked; the caller must arrange a Wake().
  /// Called from awaitables' await_suspend.
  void BlockCurrent() {
    NUMALAB_CHECK(current_ != nullptr);
    current_->state = VThreadState::kBlocked;
  }

  const std::vector<std::unique_ptr<VThread>>& threads() const {
    return threads_;
  }
  uint64_t quantum() const { return quantum_; }
  int live_threads() const { return live_; }
  /// Scheduled events not yet fired.
  size_t pending_events() const { return events_.size(); }

  /// Sums worker counters into a report (system counters are filled by the
  /// memory/OS models which hold their own SystemCounters).
  perf::ThreadCounters AggregateCounters() const;

  /// Optional happens-before race detector (src/sanity). When set, Spawn
  /// emits fork edges, thread completion emits join edges, and the sync
  /// primitives in sync.h emit acquire/release edges. Null (the default)
  /// costs one predictable branch per hook site and nothing else.
  void SetRaceDetector(sanity::RaceDetector* rd) { race_ = rd; }
  sanity::RaceDetector* race() const { return race_; }

  /// Optional span recorder (src/trace). Workload code opens spans through
  /// trace::ScopedSpan, which is a no-op (one null check) when this is
  /// unset — the zero-cost-off contract of the observability layer. The
  /// recorder is pure bookkeeping: it never charges cycles, so attaching it
  /// cannot perturb simulated results.
  void SetTraceRecorder(trace::TraceRecorder* tr) { trace_ = tr; }
  trace::TraceRecorder* trace_recorder() const { return trace_; }

 private:
  friend struct CheckpointAwaiter;

  struct ReadyCmp {
    bool operator()(const VThread* a, const VThread* b) const {
      if (a->clock != b->clock) return a->clock > b->clock;
      return a->id > b->id;
    }
  };
  struct Event {
    uint64_t when;
    uint64_t seq;
    EventCallback fn;
  };
  static_assert(sizeof(Event) <= 128,
                "Event outgrew two cache lines; check EventCallback storage");
  struct EventCmp {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// The self-re-arming event behind SchedulePeriodic.
  template <typename Tick>
  struct Periodic {
    Engine* engine;
    uint64_t when;
    uint64_t period;
    Tick tick;
    void operator()() {
      if (!tick(when)) return;
      Periodic next = *this;
      next.when = std::max(when, engine->MinLiveClock()) + period;
      engine->ScheduleEvent(next.when, next);
    }
  };

  void MakeReady(VThread* vt);
  /// Non-template halves of Spawn: allocate/register the VThread (fork edge
  /// fires before the body is constructed, as before), then bind the
  /// coroutine handle and queue the thread ready.
  VThread* CreateThread(const std::string& name, int hw_thread);
  void AttachBody(VThread* vt, Task task);

  uint64_t quantum_;
  std::vector<std::unique_ptr<VThread>> threads_;
  std::priority_queue<VThread*, std::vector<VThread*>, ReadyCmp> ready_;
  std::priority_queue<Event, std::vector<Event>, EventCmp> events_;
  uint64_t event_seq_ = 0;
  VThread* current_ = nullptr;
  int live_ = 0;
  uint64_t deadline_ = 0;
  bool deadline_exceeded_ = false;
  sanity::RaceDetector* race_ = nullptr;
  trace::TraceRecorder* trace_ = nullptr;
};

}  // namespace sim
}  // namespace numalab

#endif  // NUMALAB_SIM_ENGINE_H_
