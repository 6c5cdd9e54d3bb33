// supermalloc model.
//
// One global set of per-class object folios guarded by what is effectively
// a single global critical section — hardware transactional memory when
// available, a pthread mutex otherwise. The critical section is kept very
// short (supermalloc prefetches everything it will need *before* entering),
// so single-threaded cost is fine; but every operation of every thread
// serializes on it, so throughput collapses as threads are added (the
// worst scaling line of Fig. 2a). Its one shared pool keeps the memory
// overhead among the lowest (Fig. 2b).

#include "src/alloc/impls.h"

namespace numalab {
namespace alloc {
namespace {

constexpr uint64_t kPrefetchCycles = 20;   // done outside the lock
constexpr uint64_t kCriticalHoldCycles = 10;
constexpr uint64_t kWorkCycles = 14;
constexpr size_t kChunkBytes = 1ULL << 20;

class SuperMalloc : public SimAllocator {
 public:
  explicit SuperMalloc(AllocEnv env) : SimAllocator(env) {}

 protected:
  // HTM transactions do not bounce a lock cache line on conflict.
  static constexpr uint64_t kHtmRetryCycles = 40;

  void* AllocSmall(int cls) override {
    env_.Charge(kPrefetchCycles);
    env_.Lock(&global_, kCriticalHoldCycles, kWorkCycles, kHtmRetryCycles);
    if (void* p = FreePop(&bins_[cls])) return p;
    return pools_[cls].Carve(&env_, cls, kChunkBytes, 0, &backing_);
  }

  void FreeSmall(void* p, int cls) override {
    env_.Charge(kPrefetchCycles);
    env_.Lock(&global_, kCriticalHoldCycles, kWorkCycles, kHtmRetryCycles);
    FreePush(&bins_[cls], p);
  }

 private:
  sim::VirtualLock global_;
  ClassBins bins_;
  ClassPool pools_[SizeClasses::kNumClasses];
};

}  // namespace

std::unique_ptr<SimAllocator> MakeSuperMalloc(AllocEnv env) {
  return std::make_unique<SuperMalloc>(env);
}

}  // namespace alloc
}  // namespace numalab
