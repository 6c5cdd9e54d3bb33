// jemalloc model.
//
// Many arenas (4 x cores) with round-robin thread binding spread
// synchronization so arena locks are rarely contended; a per-thread tcache
// absorbs most operations entirely. jemalloc keeps fragmentation low
// (small, tightly packed chunks, lowest-address reuse) and *decays* dirty
// pages back to the OS aggressively — the eager MADV_DONTNEED behaviour
// that interacts badly with Transparent Hugepages (paper Fig. 5c).

#include "src/alloc/impls.h"

namespace numalab {
namespace alloc {
namespace {

constexpr uint64_t kTcacheHitCycles = 24;
constexpr uint64_t kTcacheFreeCycles = 18;
constexpr uint64_t kArenaWorkCycles = 60;
constexpr uint64_t kArenaHoldCycles = 70;
constexpr size_t kTcacheCap = 64;
constexpr int kTcacheFill = 8;
constexpr size_t kChunkBytes = 64ULL << 10;
constexpr uint64_t kDecayFrees = 4096;  // purge scan cadence

class JeMalloc : public SimAllocator {
 public:
  JeMalloc(AllocEnv env, const topology::Machine* m)
      : SimAllocator(env, m) {
    int narenas = 4 * m->num_cores();
    for (int i = 0; i < narenas; ++i) {
      arenas_.push_back(std::make_unique<Arena>());
    }
  }

 protected:
  // Large extents are cached but their pages decay (MADV_DONTNEED).
  LargePolicy large_policy() const override {
    return LargePolicy::kCachePurged;
  }

 protected:
  void* AllocSmall(int cls) override {
    int tid = env_.Tid();
    TCache& tc = PerTid(&tcaches_, tid);
    if (++ops_ % kDecayOps == 0) DecayAll();
    if (void* p = FreePop(&tc.bins[cls])) {
      env_.Charge(kTcacheHitCycles);
      return p;
    }

    uint32_t aid = ArenaIdFor(tid);
    Arena* arena = arenas_[aid].get();
    uint64_t wait = arena->lock.Acquire(env_.Now(), kArenaHoldCycles);
    env_.ChargeLockWait(wait);
    env_.Charge(kArenaWorkCycles);

    void* first = TakeFromArena(arena, aid, cls);
    for (int i = 0; first != nullptr && i < kTcacheFill; ++i) {
      void* extra = TakeFromArena(arena, aid, cls);
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
    } else {
      Arena* arena = arenas_[HeaderOf(p)->owner].get();
      uint64_t wait = arena->lock.Acquire(env_.Now(), kArenaHoldCycles / 2);
      env_.ChargeLockWait(wait);
      env_.Charge(kArenaWorkCycles / 2);
      FreePush(&arena->bins[cls], p);
      arena->frees_since_decay++;
      MaybeDecay(arena);
    }
  }

 private:
  struct Arena {
    sim::VirtualLock lock;
    FreeList bins[SizeClasses::kNumClasses];
    ClassPool pools[SizeClasses::kNumClasses];
    uint64_t frees_since_decay = 0;
  };
  struct TCache {
    FreeList bins[SizeClasses::kNumClasses];
  };

  uint32_t ArenaIdFor(int tid) {
    if (static_cast<size_t>(tid) >= tid_arena_.size()) {
      tid_arena_.resize(static_cast<size_t>(tid) + 1, -1);
    }
    int& slot = tid_arena_[static_cast<size_t>(tid)];
    if (slot < 0) {
      slot = next_arena_;
      next_arena_ = (next_arena_ + 1) % static_cast<int>(arenas_.size());
    }
    return static_cast<uint32_t>(slot);
  }

  void* TakeFromArena(Arena* arena, uint32_t aid, int cls) {
    if (void* p = FreePop(&arena->bins[cls])) return p;
    return arena->pools[cls].Carve(&env_, *machine_, cls, kChunkBytes, aid, &backing_);
  }

  void DecayAll() {
    for (auto& arena : arenas_) MaybeDecay(arena.get(), /*force=*/true);
  }

  // Dirty-page decay: release fully-free chunks' pages back to the OS.
  void MaybeDecay(Arena* arena, bool force = false) {
    if (!force && arena->frees_since_decay < kDecayFrees) return;
    arena->frees_since_decay = 0;
    uint64_t now = env_.Now();
    for (auto& pool : arena->pools) {
      for (Chunk* c = pool.chunk_list(); c != nullptr; c = c->next) {
        // Dirty-run decay: a mostly-dead chunk gets its pages returned
        // even though a few objects are still live (their pages simply
        // re-fault on next touch, as with real page-run purging).
        if (c->carved > 0 && c->live * 4 < c->carved) {
          env_.os->MadviseDontNeed(
              c->region, static_cast<uint64_t>(c->base - c->region->host),
              static_cast<uint64_t>(c->bump - c->base), now);
          env_.Charge(mem::kSyscallCycles);
        }
      }
    }
  }

  static constexpr uint64_t kDecayOps = 32768;
  std::vector<std::unique_ptr<Arena>> arenas_;
  std::vector<int> tid_arena_;
  int next_arena_ = 0;
  std::vector<std::unique_ptr<TCache>> tcaches_;
  uint64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<SimAllocator> MakeJeMalloc(AllocEnv env,
                                           const topology::Machine* m) {
  return std::make_unique<JeMalloc>(env, m);
}

}  // namespace alloc
}  // namespace numalab
