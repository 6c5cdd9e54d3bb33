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
constexpr size_t kTcacheFill = 7;
constexpr size_t kChunkBytes = 1ULL << 20;

class PtMalloc : public SimAllocator {
 public:
  explicit PtMalloc(AllocEnv env)
      : SimAllocator(env),
        max_arenas_(static_cast<size_t>(8 * env.os->machine().num_cores())) {
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
    ClassBins& tc = PerTid(&tcaches_, tid);
    if (void* p = FreePop(&tc[cls])) {
      env_.Charge(kTcacheHitCycles);
      return p;
    }

    uint32_t& aid = ArenaIdFor(tid);
    uint64_t wait =
        env_.Lock(&arenas_[aid]->lock, kArenaHoldCycles, kArenaWorkCycles);
    if (wait > kContendedWaitThreshold && arenas_.size() < max_arenas_) {
      // Contention detected: spawn a fresh arena and rebind this thread.
      arenas_.push_back(std::make_unique<Arena>());
      aid = static_cast<uint32_t>(arenas_.size() - 1);
    }

    Arena* arena = arenas_[aid].get();
    return TakeBatch(&tc[cls], kTcacheFill, [&] {
      if (void* p = FreePop(&arena->bins[cls])) return p;
      return arena->pools[cls].Carve(&env_, cls, kChunkBytes, aid,
                                     &arena->backing);
    });
  }

  void FreeSmall(void* p, int cls) override {
    int tid = env_.Tid();
    ClassBins& tc = PerTid(&tcaches_, tid);
    if (tc[cls].count() < kTcacheCap) {
      env_.Charge(kTcacheFreeCycles);
      FreePush(&tc[cls], p);
      return;
    }
    // Overflow: return to the object's home arena under its lock; the
    // work is chunk coalescing.
    Arena* arena = arenas_[HeaderOf(p)->owner].get();
    env_.Lock(&arena->lock, kArenaHoldCycles, kArenaWorkCycles);
    FreePush(&arena->bins[cls], p);
  }

 private:
  struct Arena {
    sim::VirtualLock lock;
    ClassBins bins;
    ClassPool pools[SizeClasses::kNumClasses];
    BackingSource backing;  // arena-segregated address space (sbrk-style)
  };

  // The calling thread's arena binding (starts at the main arena).
  uint32_t& ArenaIdFor(int tid) {
    if (static_cast<size_t>(tid) >= tid_arena_.size()) {
      tid_arena_.resize(static_cast<size_t>(tid) + 1, 0);
    }
    return tid_arena_[static_cast<size_t>(tid)];
  }

  std::vector<std::unique_ptr<Arena>> arenas_;
  std::vector<uint32_t> tid_arena_;
  std::vector<std::unique_ptr<ClassBins>> tcaches_;
  size_t max_arenas_;
};

}  // namespace

std::unique_ptr<SimAllocator> MakePtMalloc(AllocEnv env) {
  return std::make_unique<PtMalloc>(env);
}

}  // namespace alloc
}  // namespace numalab
