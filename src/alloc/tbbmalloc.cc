// tbbmalloc (Intel TBB scalable allocator) model.
//
// Strictly per-thread pools: the owner allocates from its own bins with no
// synchronization at all. A free by another thread pushes the object onto
// the owner's lock-free return list (one atomic push); the owner drains the
// list when its own bin runs dry. This makes tbbmalloc the best scaling
// allocator in the paper's microbenchmark, trading a little extra memory
// (per-thread slabs) for it. Its periodic pool cleanup returns fully-free
// slabs with MADV_DONTNEED, which puts it in the THP-hostile group of
// Fig. 5c.

#include "src/alloc/impls.h"

namespace numalab {
namespace alloc {
namespace {

constexpr uint64_t kOwnerAllocCycles = 22;
constexpr uint64_t kOwnerFreeCycles = 18;
constexpr uint64_t kRemoteFreeCycles = 34;  // one CAS push, no lock
constexpr uint64_t kDrainCycles = 45;
constexpr size_t kSlabBytes = 128ULL << 10;
constexpr uint64_t kCleanupFrees = 16384;

class TbbMalloc : public SimAllocator {
 public:
  TbbMalloc(AllocEnv env, const topology::Machine* m)
      : SimAllocator(env, m) {}

 protected:
  void* AllocSmall(int cls) override {
    int tid = env_.Tid();
    Pool& pool = PerTid(&pools_, tid);
    if (++ops_ % kCleanupFrees == 0) MaybeCleanup(&pool, /*force=*/true);
    if (void* p = FreePop(&pool.bins[cls])) {
      env_.Charge(kOwnerAllocCycles);
      return p;
    }
    // Drain the lock-free return list before carving fresh memory.
    if (!pool.returned[cls].empty()) {
      env_.Charge(kDrainCycles);
      while (void* p = FreePop(&pool.returned[cls])) {
        FreePush(&pool.bins[cls], p);
      }
      env_.Charge(kOwnerAllocCycles);
      return FreePop(&pool.bins[cls]);
    }
    env_.Charge(kOwnerAllocCycles);
    return pool.slabs[cls].Carve(&env_, *machine_, cls, kSlabBytes,
                                 static_cast<uint32_t>(tid), &backing_);
  }

  void FreeSmall(void* p, int cls) override {
    int tid = env_.Tid();
    int owner = static_cast<int>(HeaderOf(p)->owner);
    if (owner == tid) {
      env_.Charge(kOwnerFreeCycles);
      Pool& pool = PerTid(&pools_, tid);
      FreePush(&pool.bins[cls], p);
      MaybeCleanup(&pool);
    } else {
      env_.Charge(kRemoteFreeCycles);
      Pool& pool = PerTid(&pools_, owner);
      FreePush(&pool.returned[cls], p);
    }
  }

 private:
  struct Pool {
    FreeList bins[SizeClasses::kNumClasses];
    FreeList returned[SizeClasses::kNumClasses];  // lock-free mailbox
    ClassPool slabs[SizeClasses::kNumClasses];
    uint64_t frees = 0;
  };

  void MaybeCleanup(Pool* pool, bool force = false) {
    if (!force && ++pool->frees % kCleanupFrees != 0) return;
    uint64_t now = env_.Now();
    for (auto& slabs : pool->slabs) {
      for (Chunk* c = slabs.chunk_list(); c != nullptr; c = c->next) {
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

  std::vector<std::unique_ptr<Pool>> pools_;
  uint64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<SimAllocator> MakeTbbMalloc(AllocEnv env,
                                            const topology::Machine* m) {
  return std::make_unique<TbbMalloc>(env, m);
}

}  // namespace alloc
}  // namespace numalab
