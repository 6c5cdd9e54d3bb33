#include "src/sim/engine.h"

#include <algorithm>

#include "src/sanity/race_detector.h"

namespace numalab {
namespace sim {

bool CheckpointAwaiter::await_ready() const noexcept {
  VThread* vt = engine->current();
  // Keep running (no suspension) until the quantum is used up.
  return vt->clock < vt->run_until;
}

void CheckpointAwaiter::await_suspend(std::coroutine_handle<>) noexcept {
  // The thread stays kRunning; the run loop re-queues it as ready.
}

Engine::~Engine() {
  for (auto& t : threads_) {
    if (t->handle) {
      t->handle.destroy();
      t->handle = nullptr;
    }
  }
}

VThread* Engine::CreateThread(const std::string& name, int hw_thread) {
  auto vt = std::make_unique<VThread>();
  vt->id = static_cast<int>(threads_.size());
  vt->name = name;
  vt->hw_thread = hw_thread;
  vt->engine = this;
  VThread* raw = vt.get();
  threads_.push_back(std::move(vt));

  if (race_ != nullptr) {
    // Fork edge: everything the spawner (a thread, or the setup context
    // when spawned from host code) did so far happens-before the new
    // thread's first step.
    race_->OnThreadStart(raw->id, name, current_ != nullptr ? current_->id
                                                            : -1);
  }
  return raw;
}

void Engine::AttachBody(VThread* raw, Task task) {
  NUMALAB_CHECK(task.handle);
  task.handle.promise().engine = this;
  task.handle.promise().vt = raw;
  raw->handle = task.handle;
  raw->state = VThreadState::kReady;
  ++live_;
  ready_.push(raw);
}

void Engine::ScheduleEvent(uint64_t when, EventCallback fn) {
  events_.push(Event{when, event_seq_++, std::move(fn)});
}

void Engine::ScheduleEvent(uint64_t when, uint64_t seq, EventCallback fn) {
  NUMALAB_CHECK(seq < event_seq_ && "seq was not reserved");
  events_.push(Event{when, seq, std::move(fn)});
}

void Engine::MakeReady(VThread* vt) {
  vt->state = VThreadState::kReady;
  ready_.push(vt);
}

void Engine::Wake(VThread* vt, uint64_t at) {
  NUMALAB_CHECK(vt->state == VThreadState::kBlocked);
  vt->clock = std::max(vt->clock, at);
  MakeReady(vt);
}

uint64_t Engine::MinLiveClock() const {
  uint64_t m = UINT64_MAX;
  bool any = false;
  for (const auto& t : threads_) {
    if (t->state != VThreadState::kDone) {
      m = std::min(m, t->clock);
      any = true;
    }
  }
  return any ? m : 0;
}

uint64_t Engine::Run() {
  uint64_t makespan = 0;
  while (live_ > 0) {
    uint64_t next_ready = ready_.empty() ? UINT64_MAX : ready_.top()->clock;
    uint64_t next_event = events_.empty() ? UINT64_MAX : events_.top().when;

    if (deadline_ != 0 && next_ready > deadline_ && next_event > deadline_) {
      // Watchdog: nothing can run at or before the deadline any more. This
      // also catches simulated deadlocks (both queues empty) gracefully
      // when a deadline is armed. Destroy the outstanding frames *here*,
      // while the allocator and memory system their locals reference are
      // still alive — ~Engine would run after SimContext has started
      // tearing those down.
      deadline_exceeded_ = true;
      for (auto& t : threads_) {
        if (t->state != VThreadState::kDone && t->handle) {
          t->handle.destroy();
          t->handle = nullptr;
          t->state = VThreadState::kDone;
        }
      }
      live_ = 0;
      break;
    }

    if (next_event <= next_ready) {
      if (next_event == UINT64_MAX) {
        // Live threads but nothing ready and no events: a deadlock in the
        // simulated program (e.g. a SimMutex never unlocked).
        NUMALAB_CHECK(false && "simulated deadlock: all threads blocked");
      }
      // Batch-drain every event due before the next thread resume without
      // re-entering the outer loop. next_ready is recomputed after each
      // callback (a callback may wake a thread behind the next event), and
      // an armed deadline hands control back to the watchdog logic above —
      // the drain order is exactly the (when, seq) order the serial loop
      // produced, so simulated output is bit-identical.
      do {
        Event ev = std::move(const_cast<Event&>(events_.top()));
        events_.pop();
        ev.fn();
        next_ready = ready_.empty() ? UINT64_MAX : ready_.top()->clock;
      } while (!events_.empty() && events_.top().when <= next_ready &&
               (deadline_ == 0 || events_.top().when <= deadline_));
      continue;
    }

    VThread* vt = ready_.top();
    ready_.pop();
    if (vt->state != VThreadState::kReady) {
      continue;  // stale heap entry (thread was re-queued after a wake)
    }
    vt->state = VThreadState::kRunning;
    vt->run_until = vt->clock + quantum_;
    current_ = vt;
    vt->handle.resume();
    current_ = nullptr;

    if (vt->handle.done()) {
      vt->state = VThreadState::kDone;
      vt->handle.destroy();
      vt->handle = nullptr;
      --live_;
      makespan = std::max(makespan, vt->clock);
      // Join edge: everything after Run() happens-after every thread.
      if (race_ != nullptr) race_->OnThreadFinish(vt->id);
    } else if (vt->state == VThreadState::kRunning) {
      MakeReady(vt);  // suspended at a checkpoint
    }
    // kBlocked: some synchronization object owns the wake-up.
  }
  for (const auto& t : threads_) makespan = std::max(makespan, t->clock);
  return makespan;
}

perf::ThreadCounters Engine::AggregateCounters() const {
  perf::ThreadCounters sum;
  for (const auto& t : threads_) sum.Add(t->counters);
  return sum;
}

}  // namespace sim
}  // namespace numalab
