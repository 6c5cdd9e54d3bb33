// Host-side fast paths for the discrete-event engine's hottest allocations.
//
// Two pieces, both invisible to simulated results (they change *where* host
// memory comes from, never *what* the simulation computes):
//
//  - EventCallback: a fixed-size, move-only callable that replaces
//    std::function<void()> in Engine::Event. Every ScheduleEvent call used
//    to pay a type-erasure heap allocation on the hottest host path (the
//    serving layer's arrival stream is a chain of events, each arrival
//    scheduling the next, plus one event per retry; the OS daemons
//    schedule one per tick). The callback storage is inline in the event
//    object; a static_assert rejects any capture list that would not fit,
//    so the no-allocation property is checked at compile time rather than
//    hoped for.
//
//  - FreeListPool / PooledNew: size-bucketed LIFO free lists for the other
//    per-spawn host allocations (VThread objects, coroutine frames).
//    Benches construct thousands of short-lived engines (one per grid
//    cell), each spawning tens of threads whose frames are freed on
//    completion; the pool recycles those blocks across spawns and across
//    engines instead of round-tripping malloc. LIFO reuse is deterministic
//    and the pool never exposes addresses to simulated code, so the
//    bit-determinism contract is untouched.
//
// Under AddressSanitizer the pools disable themselves (every block goes
// straight to operator new/delete) so ASan can still see use-after-free on
// coroutine frames; nothing about simulated output depends on the pool
// being on.

#ifndef NUMALAB_SIM_EVENT_CALLBACK_H_
#define NUMALAB_SIM_EVENT_CALLBACK_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace numalab {
namespace sim {

/// \brief Move-only `void()` callable with fixed inline storage.
///
/// Construction from a lambda whose closure exceeds kInlineBytes (or is not
/// nothrow-move-constructible) is a compile error — there is no heap
/// fallback, which is the point: Engine::ScheduleEvent cannot regress into
/// allocating per event without failing to build.
class EventCallback {
 public:
  /// Generous for daemon ticks (Engine::SchedulePeriodic's engine, when,
  /// period and [this] tick = 32 B) and serving-layer closures
  /// ([&s, id, now, backoff] = 24 B), with headroom for tests.
  static constexpr size_t kInlineBytes = 48;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "event callback capture list exceeds EventCallback inline "
                  "storage; shrink the captures (capture a pointer to bulky "
                  "state) or bump kInlineBytes");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned event callback");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event callback must be nothrow-move-constructible");
    // NOLINT-DET(pointer-order): placement-new target cast, never printed
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>;
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  // move-construct + destroy src
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops OpsFor = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) {
        Fn* s = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); }};

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

#if defined(__SANITIZE_ADDRESS__)
#define NUMALAB_SIM_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NUMALAB_SIM_POOL_DISABLED 1
#endif
#endif

/// \brief Size-bucketed LIFO free lists for frequently recycled host blocks.
///
/// Buckets are 64-byte granules up to kMaxBlock; larger requests (huge
/// coroutine frames) fall through to operator new untouched. The process is
/// single-threaded on the host side (the whole simulator runs on one host
/// thread — see engine.h), so no locking. Freed blocks are retained until
/// process exit; stats expose hit/refill counts for the allocation
/// regression test.
class FreeListPool {
 public:
  static constexpr size_t kGranule = 64;
  static constexpr size_t kMaxBlock = 4096;
  static constexpr size_t kBuckets = kMaxBlock / kGranule;

  struct Stats {
    uint64_t pool_hits = 0;    ///< allocations served from a free list
    uint64_t fresh_blocks = 0; ///< allocations that had to call operator new
    uint64_t oversize = 0;     ///< requests above kMaxBlock (not pooled)
  };

  static void* Allocate(size_t size) {
#ifdef NUMALAB_SIM_POOL_DISABLED
    MutableStats().fresh_blocks++;
    return ::operator new(size);
#else
    if (size > kMaxBlock) {
      ++MutableStats().oversize;
      return ::operator new(size);
    }
    size_t b = Bucket(size);
    FreeNode*& head = FreeLists()[b];
    if (head != nullptr) {
      ++MutableStats().pool_hits;
      FreeNode* n = head;
      head = n->next;
      return n;
    }
    ++MutableStats().fresh_blocks;
    return ::operator new((b + 1) * kGranule);
#endif
  }

  static void Deallocate(void* p, size_t size) {
#ifdef NUMALAB_SIM_POOL_DISABLED
    (void)size;
    ::operator delete(p);
#else
    if (size > kMaxBlock) {
      ::operator delete(p);
      return;
    }
    FreeNode* n = static_cast<FreeNode*>(p);
    FreeNode*& head = FreeLists()[Bucket(size)];
    n->next = head;
    head = n;
#endif
  }

  static const Stats& stats() { return MutableStats(); }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static_assert(sizeof(FreeNode) <= kGranule, "granule must hold a link");

  static size_t Bucket(size_t size) {
    return (size + kGranule - 1) / kGranule - 1;
  }

  // Function-local statics: blocks are retained until process exit, and the
  // pool header stays header-only without ODR gymnastics.
  static Stats& MutableStats() {
    static Stats s;
    return s;
  }
  static FreeNode** FreeLists() {
    static FreeNode* lists[kBuckets] = {};
    return lists;
  }
};

/// \brief CRTP-free mixin: inherit to route a type's operator new/delete
/// through FreeListPool. Used by VThread; coroutine frames go through the
/// promise_type overloads instead (see Task::promise_type).
struct PooledNew {
  static void* operator new(size_t size) { return FreeListPool::Allocate(size); }
  static void operator delete(void* p, size_t size) {
    FreeListPool::Deallocate(p, size);
  }
};

}  // namespace sim
}  // namespace numalab

#endif  // NUMALAB_SIM_EVENT_CALLBACK_H_
