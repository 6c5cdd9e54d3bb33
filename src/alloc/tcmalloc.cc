// tcmalloc (gperftools) model.
//
// The fastest single-threaded path of the field: most operations touch only
// the per-thread cache. Misses go to *central free lists*, one per size
// class, each behind its own lock, moving objects in batches; spans are
// carved from a page heap behind a further global lock. Under heavy
// multi-threaded churn the hot classes' central locks and the page-heap
// lock serialize refills — the behaviour in Fig. 2a where tcmalloc wins at
// one thread and falls behind immediately after. Free spans are decommitted
// aggressively (MADV_DONTNEED), so THP hurts it (Fig. 5c).

#include "src/alloc/impls.h"

namespace numalab {
namespace alloc {
namespace {

constexpr uint64_t kFastAllocCycles = 6;   // cheapest fast path in the field
constexpr uint64_t kFastFreeCycles = 5;
constexpr uint64_t kCentralHoldCycles = 100;
constexpr uint64_t kCentralWorkCycles = 70;
constexpr uint64_t kPageHeapHoldCycles = 200;
constexpr size_t kTcacheCap = 128;
constexpr size_t kTransferBatch = 32;
constexpr size_t kChunkBytes = 256ULL << 10;
constexpr uint64_t kScavengeTransfers = 64;

class TcMalloc : public SimAllocator {
 public:
  explicit TcMalloc(AllocEnv env) : SimAllocator(env) {}

 protected:
  // The page heap caches spans but aggressively decommits them.
  LargePolicy large_policy() const override {
    return LargePolicy::kCachePurged;
  }

 protected:
  void* AllocSmall(int cls) override {
    int tid = env_.Tid();
    ClassBins& tc = PerTid(&tcaches_, tid);
    if (++ops_ % kScavengeOps == 0) {
      for (Central& central : central_) central.pool.Purge(&env_, env_.Now());
    }
    if (void* p = FreePop(&tc[cls])) {
      env_.Charge(kFastAllocCycles);
      return p;
    }

    // Refill a batch from the central free list for this class; a span
    // exhausted mid-batch sends it to the page heap under its own lock.
    Central& central = central_[cls];
    env_.Lock(&central.lock, kCentralHoldCycles, kCentralWorkCycles);
    void* first = TakeBatch(&tc[cls], kTransferBatch - 1, [&] {
      if (void* p = FreePop(&central.list)) return p;
      env_.Lock(&pageheap_lock_, kPageHeapHoldCycles);
      return central.pool.Carve(&env_, cls, kChunkBytes, 0, &backing_);
    });
    MaybeScavenge(&central);
    return first;
  }

  void FreeSmall(void* p, int cls) override {
    int tid = env_.Tid();
    ClassBins& tc = PerTid(&tcaches_, tid);
    FreePush(&tc[cls], p);
    env_.Charge(kFastFreeCycles);
    if (tc[cls].count() <= kTcacheCap) return;

    // Cache overflow: move a batch back to the central list.
    Central& central = central_[cls];
    env_.Lock(&central.lock, kCentralHoldCycles, kCentralWorkCycles);
    for (size_t i = 0; i < kTransferBatch && !tc[cls].empty(); ++i) {
      FreePush(&central.list, FreePop(&tc[cls]));
    }
    MaybeScavenge(&central);
  }

 private:
  struct Central {
    sim::VirtualLock lock;
    FreeList list;
    ClassPool pool;
    uint64_t transfers = 0;
  };

  // Periodic scavenging decommits spans that have gone mostly free.
  void MaybeScavenge(Central* central) {
    if (++central->transfers % kScavengeTransfers == 0) {
      central->pool.Purge(&env_, env_.Now());
    }
  }

  static constexpr uint64_t kScavengeOps = 32768;
  Central central_[SizeClasses::kNumClasses];
  sim::VirtualLock pageheap_lock_;
  uint64_t ops_ = 0;
  std::vector<std::unique_ptr<ClassBins>> tcaches_;
};

}  // namespace

std::unique_ptr<SimAllocator> MakeTcMalloc(AllocEnv env) {
  return std::make_unique<TcMalloc>(env);
}

}  // namespace alloc
}  // namespace numalab
