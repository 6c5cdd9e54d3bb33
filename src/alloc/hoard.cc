// Hoard model.
//
// Threads hash into one of 2 x cores per-thread heaps built from 64 KiB
// superblocks; a global heap (the "hoard") backs them. Every operation
// takes its heap's lock, but with more heaps than threads contention is
// rare, so Hoard scales excellently (Fig. 2a) at the cost of slightly
// higher per-op constants and superblock slack (Fig. 2b). Hoard retains
// superblocks rather than returning pages eagerly, so THP is roughly
// neutral for it.

#include "src/alloc/impls.h"

namespace numalab {
namespace alloc {
namespace {

constexpr uint64_t kHeapWorkCycles = 34;
constexpr uint64_t kHeapHoldCycles = 45;
constexpr uint64_t kGlobalHoldCycles = 120;
constexpr size_t kSuperblockBytes = 64ULL << 10;

class Hoard : public SimAllocator {
 public:
  explicit Hoard(AllocEnv env)
      : SimAllocator(env),
        heaps_(static_cast<size_t>(2 * env.os->machine().num_cores())) {}

 protected:
  void* AllocSmall(int cls) override {
    uint32_t hid = HeapFor(env_.Tid());
    Heap& heap = heaps_[hid];
    env_.Lock(&heap.lock, kHeapHoldCycles, kHeapWorkCycles);

    if (void* p = FreePop(&heap.bins[cls])) return p;

    // Bump-fill from the heap's current superblock; the global hoard (and
    // its lock) is only involved when a *new* superblock must be acquired.
    if (!heap.pools[cls].HasSpace(cls)) {
      env_.Lock(&global_lock_, kGlobalHoldCycles);
    }
    return heap.pools[cls].Carve(&env_, cls, kSuperblockBytes, hid,
                                 &heap.backing);
  }

  void FreeSmall(void* p, int cls) override {
    // Objects return to the heap owning their superblock (prevents false
    // sharing — Hoard's signature property).
    uint32_t hid = HeaderOf(p)->owner;
    Heap& heap = heaps_[hid];
    env_.Lock(&heap.lock, kHeapHoldCycles, kHeapWorkCycles);
    FreePush(&heap.bins[cls], p);
  }

 private:
  struct Heap {
    sim::VirtualLock lock;
    ClassBins bins;
    ClassPool pools[SizeClasses::kNumClasses];
    BackingSource backing;  // heap-segregated address space
  };

  uint32_t HeapFor(int tid) {
    // Hoard hashes tids to heaps; with 2x cores heaps collisions are rare,
    // so model the expected case: a private heap per thread (mod P).
    return static_cast<uint32_t>(tid) %
           static_cast<uint32_t>(heaps_.size());
  }

  std::vector<Heap> heaps_;
  sim::VirtualLock global_lock_;
};

}  // namespace

std::unique_ptr<SimAllocator> MakeHoard(AllocEnv env) {
  return std::make_unique<Hoard>(env);
}

}  // namespace alloc
}  // namespace numalab
