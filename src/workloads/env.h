// Env — the handle workload code uses to interact with the simulation:
// charging memory accesses and compute, allocating through the configured
// allocator, and yielding at checkpoints. One Env exists per worker
// coroutine.

#ifndef NUMALAB_WORKLOADS_ENV_H_
#define NUMALAB_WORKLOADS_ENV_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/alloc/allocator.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/mem/mem_system.h"
#include "src/sanity/race_detector.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"

namespace numalab {
namespace workloads {

struct Env {
  sim::Engine* engine = nullptr;
  mem::MemSystem* mem = nullptr;
  alloc::SimAllocator* alloc = nullptr;
  sim::VThread* self = nullptr;
  int worker_index = 0;
  int num_workers = 1;
  /// Run-wide status shared by all workers (points into the SimContext);
  /// the first failure any worker reports wins. Null in contexts built
  /// without a SimContext (unit tests) — then failures are simply dropped.
  Status* run_status = nullptr;

  void Read(const void* p, size_t n) { mem->Read(self, p, n); }
  void Write(const void* p, size_t n) { mem->Write(self, p, n); }
  /// Batched strided reads/writes over [p, p+n); stride 0 charges the whole
  /// range as one logical access. Bit-identical to the equivalent loop of
  /// Read/Write calls — see MemSystem::AccessSpan for when to use which.
  void ReadSpan(const void* p, size_t n, uint64_t stride = 0) {
    mem->AccessSpan(self, p, n, stride, /*write=*/false);
  }
  void WriteSpan(const void* p, size_t n, uint64_t stride = 0) {
    mem->AccessSpan(self, p, n, stride, /*write=*/true);
  }
  void Compute(uint64_t cycles) { self->Charge(cycles); }
  sim::CheckpointAwaiter Checkpoint() { return engine->Checkpoint(); }

  /// Charges in one step the polls that a
  /// `Compute(poll_cycles); co_await Checkpoint();` loop makes before it
  /// suspends or its clock reaches `until`: the smallest k >= 1 polls that
  /// bring the clock to min(until, self->run_until), where run_until ends
  /// this resume's quantum. Exact whenever the loop's exit test can change
  /// only between resumes: it reads state that events or other threads
  /// write, and those run only while this thread is suspended. Follow it
  /// with co_await Checkpoint().
  void IdlePoll(uint64_t poll_cycles, uint64_t until) {
    uint64_t c = self->Scaled(poll_cycles);
    uint64_t target = std::min(until, self->run_until);
    uint64_t k = 1;
    if (c > 0 && target > self->clock + c) {
      k = (target - self->clock + c - 1) / c;
    }
    self->ChargeRepeated(poll_cycles, k);
  }

  void* Alloc(size_t n) {
    void* p = alloc->Alloc(n);
    NoteAlloc(p, n);
    return p;
  }
  void Free(void* p) { alloc->Free(p); }

  /// Fallible allocation: returns nullptr on (injected or genuine)
  /// exhaustion after recording an OutOfMemory run status. Workers seeing
  /// nullptr — or a true Failed() — should wind down cooperatively: stop
  /// producing, but still arrive at any barriers they share.
  void* TryAlloc(size_t n) {
    void* p = alloc->TryAlloc(n);
    if (p == nullptr) {
      ReportFailure(Status::OutOfMemory("allocation failed"));
      return nullptr;
    }
    NoteAlloc(p, n);
    return p;
  }

  /// Tells the race detector (if attached) that [p, p+n) is a fresh block.
  /// Allocator reuse is not a happens-before edge: a freshly returned block
  /// carries no shadow history (exactly how TSan treats malloc). Call it
  /// after any allocation that bypasses Alloc/TryAlloc.
  void NoteAlloc(const void* p, size_t n) {
    if (sanity::RaceDetector* rd = mem->race()) {
      rd->OnAlloc(self != nullptr ? self->id : -1,
                  mem->os()->ToSimAddr(reinterpret_cast<uint64_t>(p)), n,
                  self != nullptr ? self->clock : 0);
    }
  }

  /// True once any worker of this run has reported a failure.
  bool Failed() const { return run_status != nullptr && !run_status->ok(); }

  /// Records `s` as the run's status; first error wins, later ones are
  /// dropped (deterministic, since the engine is single-threaded).
  void ReportFailure(Status s) {
    if (run_status != nullptr && run_status->ok() && !s.ok()) {
      *run_status = std::move(s);
    }
  }

  /// Enters the critical section of an analytical VirtualLock held for
  /// `hold` cycles: reserves the lock on the virtual time line, charges the
  /// queueing delay (also counted as lock_wait_cycles) and gives the race
  /// detector its acquire edge. LockReleased closes the section once the
  /// protected writes are done; the detector hooks are one branch when it
  /// is off.
  ///
  /// The pair doubles as the *static* lock contract: under clang's
  /// thread-safety analysis Lock acquires the capability and LockReleased
  /// releases it, so every path between them must balance
  /// (-Werror=thread-safety in check.sh stage 8). The bodies opt out of
  /// body analysis — they model timing and forward to the race detector,
  /// which is the dynamic half of the same contract.
  void Lock(sim::VirtualLock* lock, uint64_t hold) NUMALAB_ACQUIRE(lock)
      NUMALAB_NO_THREAD_SAFETY_ANALYSIS {
    uint64_t wait = lock->Acquire(self->clock, hold);
    self->Charge(wait);
    self->counters.lock_wait_cycles += wait;
    if (sanity::RaceDetector* rd = mem->race()) {
      rd->OnAcquire(self->id, lock);
    }
  }
  void LockReleased(const sim::VirtualLock* lock) NUMALAB_RELEASE(lock)
      NUMALAB_NO_THREAD_SAFETY_ANALYSIS {
    if (sanity::RaceDetector* rd = mem->race()) {
      rd->OnRelease(self != nullptr ? self->id : -1, lock);
    }
  }
};

/// Marks every page backing [p, p+len) as touched by `node` — used after
/// host-side dataset generation to model the single-threaded producer that
/// first-touched the input (the classic first-touch pathology the paper's
/// Interleave results hinge on).
inline void PretouchAsNode(mem::MemSystem* mem, const void* p, size_t len,
                           int node) {
  mem->os()->TouchRange(reinterpret_cast<uint64_t>(p), len, node);
}

/// \brief A half-open index range [lo, hi).
struct Slice {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

/// Part `me` of [0, n) cut into `parts` equal slices, the remainder going
/// to the last part (so with n < parts only the last part is non-empty).
/// The one work split every multi-worker phase uses; W4's probers pass
/// parts = num_workers - 1, me = worker_index - 1 to skip the builder.
inline Slice WorkerSlice(uint64_t n, int parts, int me) {
  uint64_t per = n / static_cast<uint64_t>(parts);
  uint64_t lo = per * static_cast<uint64_t>(me);
  return {lo, me == parts - 1 ? n : lo + per};
}

/// \brief Growable array in simulated memory, grown through the run's
/// allocator so growth and copy costs are measured — the way a query
/// operator grows its buffers through malloc. T must be trivially
/// copyable. The layout is just the pointer and two SizeT counters, so
/// SimVec<int64_t, uint32_t> is 16 bytes and fits W1's 32-byte hash-table
/// entry; that is why the first capacity is an Append argument rather than
/// a member. The buffer is never freed (it lives to the end of the run).
template <typename T, typename SizeT = uint64_t>
struct SimVec {
  T* data = nullptr;
  SizeT size = 0;
  SizeT cap = 0;

  /// Appends xs[0, n). When they do not fit, the capacity doubles
  /// (`first_cap` on the first growth): TryAlloc the new block, charge the
  /// copy as a span read of the old block and a span write of the new one,
  /// free the old block. Then one charged write covers the n new elements.
  /// Fallible under a faultlab plan: a failed growth drops the elements,
  /// marks the run failed (env.Failed()) and returns false.
  bool Append(Env& env, const T* xs, SizeT n, SizeT first_cap) {
    if (size + n > cap) {
      SizeT new_cap = cap == 0 ? first_cap : cap * 2;
      auto* nd = static_cast<T*>(env.TryAlloc(new_cap * sizeof(T)));
      if (nd == nullptr) return false;
      if (size > 0) {
        env.ReadSpan(data, size * sizeof(T));
        env.WriteSpan(nd, size * sizeof(T));
        std::memcpy(nd, data, size * sizeof(T));
        env.Free(data);
      }
      data = nd;
      cap = new_cap;
    }
    std::memcpy(data + size, xs, n * sizeof(T));
    env.Write(data + size, n * sizeof(T));
    size += n;
    return true;
  }
};

}  // namespace workloads
}  // namespace numalab

#endif  // NUMALAB_WORKLOADS_ENV_H_
