// Simulated physical pages and mapped regions.
//
// SimOS hands allocators Regions of host memory whose 4K pages each carry a
// simulated NUMA placement. A "huge page" is a 2M-aligned run of 512 page
// records whose head record holds the placement for the whole run (that is
// how THP collapse is represented).

#ifndef NUMALAB_MEM_PAGE_H_
#define NUMALAB_MEM_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/mem/cost_model.h"

namespace numalab {
namespace mem {

/// \brief numactl-style process memory placement policy (Table IV).
enum class MemPolicy {
  kFirstTouch,  ///< bind at first access, to the toucher's node (Linux default)
  kInterleave,  ///< round-robin across all nodes at allocation
  kLocalAlloc,  ///< bind at allocation, to the allocating thread's node
  kPreferred,   ///< bind to one chosen node until it is full
};

const char* MemPolicyName(MemPolicy p);

/// \brief Per-4K-page simulated state. Kept compact: regions can hold
/// hundreds of thousands of these.
struct PageRec {
  int16_t node = -1;            ///< NUMA node, -1 = not yet bound
  uint8_t resident = 0;         ///< touched at least once
  uint8_t huge = 0;             ///< member of a collapsed 2M run
  uint8_t visits[kMaxNumaNodes] = {0};  ///< AutoNUMA access samples by node

  // Adaptive placement state (DESIGN.md section 12); all zero and never
  // read while placement is disabled. Only non-huge pages ever carry a
  // replica_mask: THP collapse refuses replicated members.
  //
  // Lock contract (DESIGN.md section 13): the replica table — these
  // fields plus SimOS's per-node replica accounting — is engine-
  // serialized: mutated only from AccessPage/AddReplica/DropReplicas on
  // the single host thread driving the engine, so it carries no
  // capability annotation; simulated-thread interleavings cannot race it
  // by construction.
  uint8_t replica_mask = 0;     ///< nodes holding a read replica (bit=node)
  uint8_t reads = 0;            ///< sampled reads (saturating, wave-decayed)
  uint8_t writes = 0;           ///< sampled writes (saturating, wave-decayed)
  uint16_t heat = 0;            ///< access-rate accumulator, wave-decayed
  uint16_t heat_wave = 0;       ///< scan-wave epoch of the last heat update

  uint64_t migrating_until = 0; ///< accesses stall until this virtual time
};

class SimAllocatorBase;  // forward decl (src/alloc)

/// \brief A contiguous mapping created by SimOS::TryMap.
struct Region {
  uint64_t base = 0;   ///< host address of the backing memory
  uint64_t len = 0;    ///< bytes (multiple of 4K)
  char* host = nullptr;
  bool thp_eligible = true;
  std::vector<PageRec> pages;  ///< len / 4K records

  uint64_t end() const { return base + len; }
  size_t PageIndex(uint64_t addr) const {
    return static_cast<size_t>((addr - base) / kSmallPageBytes);
  }
  /// Head index of the huge run containing page i (2M-aligned in *address*).
  size_t HugeHead(size_t i) const {
    uint64_t addr = base + i * kSmallPageBytes;
    uint64_t head_addr = addr & ~(kHugePageBytes - 1);
    if (head_addr < base) return 0;  // unaligned leading part (never huge)
    return PageIndex(head_addr);
  }
};

}  // namespace mem
}  // namespace numalab

#endif  // NUMALAB_MEM_PAGE_H_
