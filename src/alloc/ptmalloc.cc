// ptmalloc (glibc malloc) model.
//
// Arenas protected by mutexes; when a thread finds its arena contended and
// the per-process arena limit (8 x cores) is not reached, it creates a new
// arena and rebinds — allocated memory never moves between arenas. A small
// per-thread cache (tcache, 64 entries per bin) short-circuits the arena on
// the fast path. glibc trims memory back to the OS only from the top of the
// heap, so for steady-state query workloads it effectively never calls
// MADV_DONTNEED — which is why THP is not particularly harmful to it.

#include "src/alloc/impls.h"

namespace numalab {
namespace alloc {
namespace {

constexpr uint64_t kTcacheHitCycles = 22;
constexpr uint64_t kTcacheFreeCycles = 16;
constexpr uint64_t kArenaWorkCycles = 60;   // bin bookkeeping under the lock
constexpr uint64_t kArenaHoldCycles = 90;   // critical-section length
constexpr uint64_t kContendedWaitThreshold = 350;
constexpr size_t kTcacheCap = 7;
constexpr int kTcacheFill = 7;
constexpr size_t kChunkBytes = 1ULL << 20;

class PtMalloc : public SimAllocator {
 public:
  PtMalloc(AllocEnv env, const topology::Machine* m)
      : SimAllocator(env, m),
        max_arenas_(static_cast<size_t>(8 * m->num_cores())) {
    arenas_.push_back(std::make_unique<Arena>());  // the main arena
  }

 protected:
  // glibc mmaps/munmaps every block above the mmap threshold.
  LargePolicy large_policy() const override {
    return LargePolicy::kMmapEveryTime;
  }

 protected:
  void* AllocSmall(int cls) override {
    int tid = env_.Tid();
    TCache& tc = PerTid(&tcaches_, tid);
    if (void* p = FreePop(&tc.bins[cls])) {
      env_.Charge(kTcacheHitCycles);
      return p;
    }

    Arena* arena = ArenaFor(tid);
    uint64_t wait = arena->lock.Acquire(env_.Now(), kArenaHoldCycles);
    env_.ChargeLockWait(wait);
    env_.Charge(kArenaWorkCycles);
    if (wait > kContendedWaitThreshold && arenas_.size() < max_arenas_) {
      // Contention detected: spawn a fresh arena and rebind this thread.
      arenas_.push_back(std::make_unique<Arena>());
      tid_arena_[static_cast<size_t>(tid)] =
          static_cast<int>(arenas_.size() - 1);
      arena = arenas_.back().get();
    }

    void* first = TakeFromArena(arena, cls);
    for (int i = 0; first != nullptr && i < kTcacheFill; ++i) {
      void* extra = TakeFromArena(arena, cls);
      if (extra == nullptr) break;  // backing exhausted mid-refill
      FreePush(&tc.bins[cls], extra);
    }
    return first;
  }

  void FreeSmall(void* p, int cls) override {
    int tid = env_.Tid();
    TCache& tc = PerTid(&tcaches_, tid);
    if (tc.bins[cls].count() < kTcacheCap) {
      env_.Charge(kTcacheFreeCycles);
      FreePush(&tc.bins[cls], p);
      return;
    }
    // Overflow: return to the object's home arena under its lock.
    Arena* arena = arenas_[HeaderOf(p)->owner].get();
    uint64_t wait = arena->lock.Acquire(env_.Now(), kArenaHoldCycles);
    env_.ChargeLockWait(wait);
    env_.Charge(kArenaWorkCycles);  // chunk coalescing under the lock
    FreePush(&arena->bins[cls], p);
  }

 private:
  struct Arena {
    sim::VirtualLock lock;
    FreeList bins[SizeClasses::kNumClasses];
    ClassPool pools[SizeClasses::kNumClasses];
    BackingSource backing;  // arena-segregated address space (sbrk-style)
  };
  struct TCache {
    FreeList bins[SizeClasses::kNumClasses];
  };

  Arena* ArenaFor(int tid) {
    if (static_cast<size_t>(tid) >= tid_arena_.size()) {
      tid_arena_.resize(static_cast<size_t>(tid) + 1, 0);
    }
    return arenas_[static_cast<size_t>(
                       tid_arena_[static_cast<size_t>(tid)])].get();
  }

  void* TakeFromArena(Arena* arena, int cls) {
    if (void* p = FreePop(&arena->bins[cls])) return p;
    uint32_t arena_id = 0;
    for (size_t i = 0; i < arenas_.size(); ++i) {
      if (arenas_[i].get() == arena) arena_id = static_cast<uint32_t>(i);
    }
    return arena->pools[cls].Carve(&env_, *machine_, cls, kChunkBytes,
                                   arena_id, &arena->backing);
  }

  std::vector<std::unique_ptr<Arena>> arenas_;
  std::vector<int> tid_arena_;
  std::vector<std::unique_ptr<TCache>> tcaches_;
  size_t max_arenas_;
};

}  // namespace

std::unique_ptr<SimAllocator> MakePtMalloc(AllocEnv env,
                                           const topology::Machine* m) {
  return std::make_unique<PtMalloc>(env, m);
}

}  // namespace alloc
}  // namespace numalab
