// mcmalloc model.
//
// Built for many-core machines: it minimizes kernel crossings by mapping
// memory in large batches and pre-carving entire chunks into per-thread
// dedicated pools for the frequently used size classes. The batch size is
// adapted to the observed thread count, so the committed-but-unused slack
// grows with every extra thread — the exploding memory overhead of
// Fig. 2b (1.1x at one thread to 6.6x at sixteen). Throughput is
// middle-of-the-road: a monitoring layer taxes every operation, and
// infrequent classes share a locked global pool.

#include "src/alloc/impls.h"

namespace numalab {
namespace alloc {
namespace {

constexpr uint64_t kMonitorCycles = 14;  // request-size bookkeeping
constexpr uint64_t kOwnerAllocCycles = 20;
constexpr uint64_t kOwnerFreeCycles = 16;
constexpr uint64_t kGlobalHoldCycles = 110;
constexpr uint64_t kGlobalWorkCycles = 70;
constexpr size_t kBatchBaseBytes = 56ULL << 10;
// A class becomes "frequent" (dedicated per-thread pool) after this many
// requests from one thread.
constexpr uint64_t kFrequentThreshold = 384;

class McMalloc : public SimAllocator {
 public:
  McMalloc(AllocEnv env, const topology::Machine* m) : SimAllocator(env, m) {}

 protected:
  void* AllocSmall(int cls) override {
    int tid = env_.Tid();
    Pool& pool = PerTid(&pools_, tid);
    if (!pool.seen) {
      pool.seen = true;
      ++active_threads_;
    }
    env_.Charge(kMonitorCycles);
    ++pool.requests[cls];

    if (void* p = FreePop(&pool.bins[cls])) {
      env_.Charge(kOwnerAllocCycles);
      return p;
    }

    if (pool.requests[cls] >= kFrequentThreshold) {
      // Frequent class: map a whole adaptive batch and pre-carve it into
      // the dedicated pool (this is where the slack comes from).
      size_t batch = kBatchBaseBytes * static_cast<size_t>(active_threads_);
      size_t stride = sizeof(ObjHeader) + SizeClasses::ClassSize(cls);
      size_t count = std::max<size_t>(batch / stride, 1);
      env_.Charge(kOwnerAllocCycles);
      void* first = pool.dedicated[cls].Carve(&env_, *machine_, cls, batch,
                                              static_cast<uint32_t>(tid), &backing_);
      for (size_t i = 1; first != nullptr && i < count; ++i) {
        void* extra = pool.dedicated[cls].Carve(
            &env_, *machine_, cls, batch, static_cast<uint32_t>(tid),
            &backing_);
        if (extra == nullptr) break;  // backing exhausted mid-batch
        FreePush(&pool.bins[cls], extra);
      }
      return first;
    }

    // Infrequent class: size-segregated global pool behind a lock.
    uint64_t wait = global_lock_[cls].Acquire(env_.Now(), kGlobalHoldCycles);
    env_.ChargeLockWait(wait);
    env_.Charge(kGlobalWorkCycles);
    if (void* p = FreePop(&global_bins_[cls])) return p;
    return global_pools_[cls].Carve(&env_, *machine_, cls, kBatchBaseBytes,
                                    static_cast<uint32_t>(tid), &backing_);
  }

  void FreeSmall(void* p, int cls) override {
    int tid = env_.Tid();
    Pool& pool = PerTid(&pools_, tid);
    env_.Charge(kMonitorCycles + kOwnerFreeCycles);
    FreePush(&pool.bins[cls], p);
  }

 private:
  struct Pool {
    bool seen = false;
    uint64_t requests[SizeClasses::kNumClasses] = {0};
    FreeList bins[SizeClasses::kNumClasses];
    ClassPool dedicated[SizeClasses::kNumClasses];
  };

  std::vector<std::unique_ptr<Pool>> pools_;
  int active_threads_ = 0;
  sim::VirtualLock global_lock_[SizeClasses::kNumClasses];
  FreeList global_bins_[SizeClasses::kNumClasses];
  ClassPool global_pools_[SizeClasses::kNumClasses];
};

}  // namespace

std::unique_ptr<SimAllocator> MakeMcMalloc(AllocEnv env,
                                           const topology::Machine* m) {
  return std::make_unique<McMalloc>(env, m);
}

}  // namespace alloc
}  // namespace numalab
