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
constexpr int kTransferBatch = 32;
constexpr size_t kChunkBytes = 256ULL << 10;
constexpr uint64_t kScavengeTransfers = 64;

class TcMalloc : public SimAllocator {
 public:
  TcMalloc(AllocEnv env, const topology::Machine* m) : SimAllocator(env, m) {}

 protected:
  // The page heap caches spans but aggressively decommits them.
  LargePolicy large_policy() const override {
    return LargePolicy::kCachePurged;
  }

 protected:
  void* AllocSmall(int cls) override {
    int tid = env_.Tid();
    TCache& tc = PerTid(&tcaches_, tid);
    if (++ops_ % kScavengeOps == 0) {
      for (auto& central : central_) MaybeScavenge(&central, /*force=*/true);
    }
    if (void* p = FreePop(&tc.bins[cls])) {
      env_.Charge(kFastAllocCycles);
      return p;
    }

    // Refill a batch from the central free list for this class.
    Central& central = central_[cls];
    uint64_t wait = central.lock.Acquire(env_.Now(), kCentralHoldCycles);
    env_.ChargeLockWait(wait);
    env_.Charge(kCentralWorkCycles);

    void* first = TakeCentral(&central, cls);
    for (int i = 0; first != nullptr && i < kTransferBatch - 1; ++i) {
      void* extra = TakeCentral(&central, cls);
      if (extra == nullptr) break;  // backing exhausted mid-refill
      FreePush(&tc.bins[cls], extra);
    }
    MaybeScavenge(&central);
    return first;
  }

  void FreeSmall(void* p, int cls) override {
    int tid = env_.Tid();
    TCache& tc = PerTid(&tcaches_, tid);
    FreePush(&tc.bins[cls], p);
    env_.Charge(kFastFreeCycles);
    if (tc.bins[cls].count() <= kTcacheCap) return;

    // Cache overflow: move a batch back to the central list.
    Central& central = central_[cls];
    uint64_t wait = central.lock.Acquire(env_.Now(), kCentralHoldCycles);
    env_.ChargeLockWait(wait);
    env_.Charge(kCentralWorkCycles);
    for (int i = 0; i < kTransferBatch && !tc.bins[cls].empty(); ++i) {
      FreePush(&central.list, FreePop(&tc.bins[cls]));
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
  struct TCache {
    FreeList bins[SizeClasses::kNumClasses];
  };

  void* TakeCentral(Central* central, int cls) {
    if (void* p = FreePop(&central->list)) return p;
    // Span exhausted: the page heap hands out a new one under its own lock.
    uint64_t wait = pageheap_lock_.Acquire(env_.Now(), kPageHeapHoldCycles);
    env_.ChargeLockWait(wait);
    return central->pool.Carve(&env_, *machine_, cls, kChunkBytes, 0, &backing_);
  }

  // Periodic scavenging decommits spans that have gone fully free.
  void MaybeScavenge(Central* central, bool force = false) {
    if (!force && ++central->transfers % kScavengeTransfers != 0) return;
    uint64_t now = env_.Now();
    for (Chunk* c = central->pool.chunk_list(); c != nullptr; c = c->next) {
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

  static constexpr uint64_t kScavengeOps = 32768;
  Central central_[SizeClasses::kNumClasses];
  sim::VirtualLock pageheap_lock_;
  uint64_t ops_ = 0;
  std::vector<std::unique_ptr<TCache>> tcaches_;
};

}  // namespace

std::unique_ptr<SimAllocator> MakeTcMalloc(AllocEnv env,
                                           const topology::Machine* m) {
  return std::make_unique<TcMalloc>(env, m);
}

}  // namespace alloc
}  // namespace numalab
