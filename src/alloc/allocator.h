// SimAllocator — the interface the workloads allocate through, and the
// factory for the seven allocator models from the paper:
//
//   ptmalloc    — glibc default: arenas + mutexes, small thread cache
//   jemalloc    — many arenas, round-robin binding, tcache, eager decay
//   tcmalloc    — big thread caches, central per-class lists, spans
//   hoard       — hashed per-thread heaps + global hoard of superblocks
//   tbbmalloc   — per-thread pools, lock-free remote frees
//   supermalloc — one HTM-style global critical section per operation
//   mcmalloc    — per-thread dedicated pools, batched mappings
//
// See framework.h for what is real and what is modelled.

#ifndef NUMALAB_ALLOC_ALLOCATOR_H_
#define NUMALAB_ALLOC_ALLOCATOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/alloc/framework.h"

namespace numalab {
namespace alloc {

class SimAllocator {
 public:
  explicit SimAllocator(AllocEnv env) : env_(env) {}
  virtual ~SimAllocator() = default;

  SimAllocator(const SimAllocator&) = delete;
  SimAllocator& operator=(const SimAllocator&) = delete;

  /// Allocates `n` bytes, 16-aligned. May return nullptr: under a faultlab
  /// plan on simulated ENOMEM injection, or when the simulated address
  /// space is exhausted. Workload code reaches this through Env::TryAlloc,
  /// which converts nullptr into a run Status.
  void* TryAlloc(size_t n);

  /// Infallible Alloc for setup paths and index internals ("too small to
  /// fail" kernel semantics): retries injected failures with a bounded
  /// reclaim stall, CHECK-fails if the failure is permanent. With
  /// alloc_fail_prob == 1.0 the retries cannot succeed, so fault tests
  /// exercising p=1 must stay on TryAlloc paths.
  void* Alloc(size_t n);

  /// Frees a pointer obtained from Alloc. nullptr is a no-op.
  void Free(void* p);

  const AllocStats& stats() const { return stats_; }

 protected:
  virtual void* AllocSmall(int cls) = 0;
  virtual void FreeSmall(void* p, int cls) = 0;

  /// How the allocator treats blocks above the size-class range. glibc
  /// mmaps and munmaps them every time (the slow path the paper's MonetDB
  /// experiments suffer under); scalable allocators cache them, either
  /// keeping the pages (fast, memory-hungry) or returning them with
  /// MADV_DONTNEED (THP-churning but lean).
  enum class LargePolicy { kMmapEveryTime, kCache, kCachePurged };
  virtual LargePolicy large_policy() const { return LargePolicy::kCache; }

  void* AllocLarge(size_t n);
  void FreeLarge(void* p);

  AllocEnv env_;
  AllocStats stats_;
  BackingSource backing_;  ///< shared source of small-object chunks

 private:
  struct LargeObj {
    mem::Region* region;
    size_t size;
  };
  std::unordered_map<void*, LargeObj> large_;
  // Cached free large blocks, keyed by 64K-rounded region length.
  std::unordered_map<uint64_t, std::vector<mem::Region*>> large_cache_;
};

/// Names accepted by MakeAllocator, in the paper's order.
const std::vector<std::string>& AllAllocatorNames();

/// Creates the named allocator; CHECK-fails on unknown names.
std::unique_ptr<SimAllocator> MakeAllocator(const std::string& name,
                                            AllocEnv env);

}  // namespace alloc
}  // namespace numalab

#endif  // NUMALAB_ALLOC_ALLOCATOR_H_
