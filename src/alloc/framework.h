// Shared machinery for the simulated dynamic memory allocators.
//
// The seven allocators the paper evaluates (Section III-A) are implemented
// as *working* size-class allocators: they really carve objects out of
// SimOS regions and serve them to the workloads, so correctness properties
// (no overlap, alignment, reuse-after-free hygiene) are testable. Their
// *performance* differences come from three modelled dimensions:
//
//  1. Synchronization topology — which VirtualLocks an operation crosses
//     (one global lock, per-arena, per-class central lists, per-thread
//     caches, lock-free remote-free lists...), charged in virtual cycles.
//  2. Pool geometry — chunk sizes, refill batches, per-thread dedication —
//     which drives the memory-overhead metric (resident / requested) and
//     page placement (which thread first touches a page).
//  3. OS interaction — how eagerly freed pages are returned with
//     MADV_DONTNEED, which is what makes Transparent Hugepages hurt some
//     allocators (Fig. 5c) and also forces re-faulting and re-binding.
//
// First-touch fidelity: carving a chunk writes free-list links into it, so
// pages become resident and NUMA-bound when the *allocator* first walks
// them — exactly as with a real malloc under the kernel's first-touch
// policy.

#ifndef NUMALAB_ALLOC_FRAMEWORK_H_
#define NUMALAB_ALLOC_FRAMEWORK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"
#include "src/mem/cost_model.h"
#include "src/mem/sim_os.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"

namespace numalab {
namespace faultlab {
class FaultLab;
}  // namespace faultlab
namespace alloc {

/// \brief Everything an allocator needs from the simulation.
struct AllocEnv {
  sim::Engine* engine = nullptr;
  mem::SimOS* os = nullptr;
  /// faultlab allocation-failure injection; null in no-fault runs.
  faultlab::FaultLab* faults = nullptr;

  /// Virtual thread id of the caller; 0 when called outside a coroutine
  /// (setup code), which is also charged nothing.
  int Tid() const {
    sim::VThread* vt = engine->current();
    return vt != nullptr ? vt->id : 0;
  }
  uint64_t Now() const {
    sim::VThread* vt = engine->current();
    return vt != nullptr ? vt->clock : 0;
  }
  void Charge(uint64_t cycles) const {
    sim::VThread* vt = engine->current();
    if (vt != nullptr) vt->Charge(cycles);
  }
  void ChargeLockWait(uint64_t cycles) const {
    sim::VThread* vt = engine->current();
    if (vt != nullptr) {
      vt->Charge(cycles);
      vt->counters.lock_wait_cycles += cycles;
    }
  }
  int CurNode(const topology::Machine& m) const {
    sim::VThread* vt = engine->current();
    return vt != nullptr ? m.NodeOfHwThread(vt->hw_thread) : 0;
  }
};

/// \brief Size-class map shared by all allocators: 16 B .. 32 KiB in ~25%
/// geometric steps; larger requests go straight to SimOS::TryMap.
class SizeClasses {
 public:
  static constexpr size_t kMaxSmall = 32768;
  static constexpr int kNumClasses = 40;

  static size_t ClassSize(int c) { return kSizes[c]; }

  static int ClassFor(size_t n) {
    // Linear scan is fine: 40 entries, and the common small sizes exit in
    // the first few probes.
    for (int c = 0; c < kNumClasses; ++c) {
      if (kSizes[c] >= n) return c;
    }
    NUMALAB_CHECK(false && "ClassFor called with a large size");
    return -1;
  }

 private:
  static constexpr size_t kSizes[kNumClasses] = {
      16,    32,    48,    64,    80,    96,    112,   128,
      160,   192,   224,   256,   320,   384,   448,   512,
      640,   768,   896,   1024,  1280,  1536,  1792,  2048,
      2560,  3072,  3584,  4096,  5120,  6144,  7168,  8192,
      10240, 12288, 14336, 16384, 20480, 24576, 28672, 32768};
};

struct Chunk;

/// \brief Maps large (4 MiB) regions from SimOS and hands out sub-ranges.
/// All small-object chunks are carved from these, the way real allocators
/// subdivide big mmaps — which is what makes them interact with
/// Transparent Hugepages: a 2M-aligned run inside a backing region can be
/// faulted or collapsed huge, and an eager MADV_DONTNEED of a drained
/// chunk then has to split it.
class BackingSource {
 public:
  static constexpr uint64_t kRegionBytes = 4ULL << 20;

  /// Returns (region, offset) of a fresh `bytes` range (4K-aligned), or
  /// {nullptr, 0} when the simulated address space is exhausted (the
  /// current region is kept, so a later smaller Take can still succeed).
  std::pair<mem::Region*, uint64_t> Take(AllocEnv* env, uint64_t bytes);

 private:
  mem::Region* current_ = nullptr;
  uint64_t offset_ = 0;
};

/// \brief Header stored 16 bytes before every payload the allocators hand
/// out. Large (direct-mapped) objects use cls = kLargeClass.
struct ObjHeader {
  static constexpr int32_t kLargeClass = -1;
  int32_t cls;
  uint32_t owner;  ///< allocator-specific (thread id, arena id, heap id)
  Chunk* chunk;    ///< nullptr for large objects
};
static_assert(sizeof(ObjHeader) == 16, "header must preserve alignment");

/// \brief A run of memory carved from a Region for one size class.
struct Chunk {
  mem::Region* region = nullptr;
  char* base = nullptr;
  char* bump = nullptr;
  char* end = nullptr;
  int cls = 0;
  uint32_t live = 0;      ///< outstanding objects
  uint32_t carved = 0;    ///< objects ever carved
  Chunk* next = nullptr;  ///< allocator-managed chunk list
};

/// \brief Intrusive LIFO free list; the link lives in the payload.
class FreeList {
 public:
  void Push(void* p) {
    *reinterpret_cast<void**>(p) = head_;
    head_ = p;
    ++count_;
  }
  void* Pop() {
    if (head_ == nullptr) return nullptr;
    void* p = head_;
    head_ = *reinterpret_cast<void**>(p);
    --count_;
    return p;
  }
  size_t count() const { return count_; }
  bool empty() const { return head_ == nullptr; }

 private:
  void* head_ = nullptr;
  size_t count_ = 0;
};

/// \brief Returns the header for a payload pointer.
inline ObjHeader* HeaderOf(void* p) {
  return reinterpret_cast<ObjHeader*>(static_cast<char*>(p) -
                                      sizeof(ObjHeader));
}

/// Pushes a dead object onto a free list, maintaining its chunk's live
/// count (live == 0 makes the chunk purgeable).
inline void FreePush(FreeList* list, void* p) {
  --HeaderOf(p)->chunk->live;
  list->Push(p);
}

/// Pops an object back to life.
inline void* FreePop(FreeList* list) {
  void* p = list->Pop();
  if (p != nullptr) ++HeaderOf(p)->chunk->live;
  return p;
}

/// \brief Unsynchronized per-class object source: a chunk list with bump
/// carving. Owners wrap it with their own locking scheme.
class ClassPool {
 public:
  ClassPool() = default;
  ~ClassPool() {
    Chunk* c = chunks_head_;
    while (c != nullptr) {
      Chunk* next = c->next;
      delete c;  // the backing Region is owned and freed by SimOS
      c = next;
    }
  }
  ClassPool(const ClassPool&) = delete;
  ClassPool& operator=(const ClassPool&) = delete;
  ClassPool(ClassPool&& o) noexcept
      : chunks_head_(o.chunks_head_), nchunks_(o.nchunks_) {
    o.chunks_head_ = nullptr;
    o.nchunks_ = 0;
  }

  /// Carves one object (header + payload) for class `cls`; takes a new
  /// chunk of `chunk_bytes` from `backing` when the current one is
  /// exhausted. Marks newly crossed pages resident/bound (the free-link
  /// write is the first touch). Returns the payload pointer, or nullptr
  /// when the backing source cannot map a fresh chunk — allocator impls
  /// must propagate the nullptr (and never FreePush it).
  void* Carve(AllocEnv* env, const topology::Machine& machine, int cls,
              size_t chunk_bytes, uint32_t owner, BackingSource* backing);

  /// Number of chunks mapped so far.
  size_t chunks() const { return nchunks_; }

  /// True when the current chunk can serve one more object of this class
  /// without mapping (i.e. Carve will not need the OS or a global heap).
  bool HasSpace(int cls) const {
    size_t stride = sizeof(ObjHeader) + SizeClasses::ClassSize(cls);
    return chunks_head_ != nullptr &&
           chunks_head_->bump + stride <= chunks_head_->end;
  }

  Chunk* chunk_list() const { return chunks_head_; }

 private:
  Chunk* chunks_head_ = nullptr;
  size_t nchunks_ = 0;
};

/// \brief Statistics every allocator maintains.
struct AllocStats {
  uint64_t requested_live = 0;
  uint64_t requested_peak = 0;
  uint64_t allocs = 0;
  uint64_t frees = 0;

  void OnAlloc(uint64_t n) {
    ++allocs;
    requested_live += n;
    if (requested_live > requested_peak) requested_peak = requested_live;
  }
  void OnFree(uint64_t n) {
    ++frees;
    requested_live -= n;
  }
};

}  // namespace alloc
}  // namespace numalab

#endif  // NUMALAB_ALLOC_FRAMEWORK_H_
