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
  explicit TbbMalloc(AllocEnv env) : SimAllocator(env) {}

 protected:
  void* AllocSmall(int cls) override {
    int tid = env_.Tid();
    Pool& pool = PerTid(&pools_, tid);
    if (++ops_ % kCleanupFrees == 0) Cleanup(&pool);
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
    return pool.slabs[cls].Carve(&env_, cls, kSlabBytes,
                                 static_cast<uint32_t>(tid), &backing_);
  }

  void FreeSmall(void* p, int cls) override {
    int tid = env_.Tid();
    int owner = static_cast<int>(HeaderOf(p)->owner);
    if (owner == tid) {
      env_.Charge(kOwnerFreeCycles);
      Pool& pool = PerTid(&pools_, tid);
      FreePush(&pool.bins[cls], p);
      if (++pool.frees % kCleanupFrees == 0) Cleanup(&pool);
    } else {
      env_.Charge(kRemoteFreeCycles);
      Pool& pool = PerTid(&pools_, owner);
      FreePush(&pool.returned[cls], p);
    }
  }

 private:
  struct Pool {
    ClassBins bins;
    ClassBins returned;  // lock-free mailbox
    ClassPool slabs[SizeClasses::kNumClasses];
    uint64_t frees = 0;
  };

  void Cleanup(Pool* pool) {
    uint64_t now = env_.Now();
    for (const ClassPool& slabs : pool->slabs) slabs.Purge(&env_, now);
  }

  std::vector<std::unique_ptr<Pool>> pools_;
  uint64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<SimAllocator> MakeTbbMalloc(AllocEnv env) {
  return std::make_unique<TbbMalloc>(env);
}

}  // namespace alloc
}  // namespace numalab
