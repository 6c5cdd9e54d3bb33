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
constexpr size_t kTcacheFill = 8;
constexpr size_t kChunkBytes = 64ULL << 10;
constexpr uint64_t kDecayFrees = 4096;  // purge scan cadence

class JeMalloc : public SimAllocator {
 public:
  explicit JeMalloc(AllocEnv env) : SimAllocator(env) {
    int narenas = 4 * env.os->machine().num_cores();
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
    ClassBins& tc = PerTid(&tcaches_, tid);
    if (++ops_ % kDecayOps == 0) {
      for (auto& arena : arenas_) Decay(arena.get());
    }
    if (void* p = FreePop(&tc[cls])) {
      env_.Charge(kTcacheHitCycles);
      return p;
    }

    uint32_t aid = ArenaIdFor(tid);
    Arena* arena = arenas_[aid].get();
    env_.Lock(&arena->lock, kArenaHoldCycles, kArenaWorkCycles);
    return TakeBatch(&tc[cls], kTcacheFill, [&] {
      if (void* p = FreePop(&arena->bins[cls])) return p;
      return arena->pools[cls].Carve(&env_, cls, kChunkBytes, aid, &backing_);
    });
  }

  void FreeSmall(void* p, int cls) override {
    int tid = env_.Tid();
    ClassBins& tc = PerTid(&tcaches_, tid);
    if (tc[cls].count() < kTcacheCap) {
      env_.Charge(kTcacheFreeCycles);
      FreePush(&tc[cls], p);
    } else {
      Arena* arena = arenas_[HeaderOf(p)->owner].get();
      env_.Lock(&arena->lock, kArenaHoldCycles / 2, kArenaWorkCycles / 2);
      FreePush(&arena->bins[cls], p);
      if (++arena->frees_since_decay >= kDecayFrees) Decay(arena);
    }
  }

 private:
  struct Arena {
    sim::VirtualLock lock;
    ClassBins bins;
    ClassPool pools[SizeClasses::kNumClasses];
    uint64_t frees_since_decay = 0;
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

  // Dirty-page decay: return the arena's mostly-dead chunks to the OS.
  void Decay(Arena* arena) {
    arena->frees_since_decay = 0;
    uint64_t now = env_.Now();
    for (const ClassPool& pool : arena->pools) pool.Purge(&env_, now);
  }

  static constexpr uint64_t kDecayOps = 32768;
  std::vector<std::unique_ptr<Arena>> arenas_;
  std::vector<int> tid_arena_;
  int next_arena_ = 0;
  std::vector<std::unique_ptr<ClassBins>> tcaches_;
  uint64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<SimAllocator> MakeJeMalloc(AllocEnv env) {
  return std::make_unique<JeMalloc>(env);
}

}  // namespace alloc
}  // namespace numalab
