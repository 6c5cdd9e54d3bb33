// Simulated operating-system memory management: mapping regions for the
// allocators, binding pages to NUMA nodes per the process memory policy,
// releasing memory (madvise), migrating pages, and collapsing/splitting
// transparent huge pages.
//
// All simulated mappings are carved from one big reserved host slab
// (MAP_NORESERVE), so addresses are *deterministic relative to the slab
// base*: every cache/TLB hash, page index and placement decision replays
// identically across runs — the property that makes simulated experiments
// bit-reproducible.
//
// SimOS is mechanism only; *when* pages migrate or collapse is decided by
// the AutoNUMA and khugepaged models in src/osmodel.

#ifndef NUMALAB_MEM_SIM_OS_H_
#define NUMALAB_MEM_SIM_OS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/faultlab/faultlab.h"
#include "src/mem/contention.h"
#include "src/mem/cost_model.h"
#include "src/mem/page.h"
#include "src/perf/counters.h"
#include "src/sim/engine.h"
#include "src/topology/machine.h"

namespace numalab {
namespace mem {

class SimOS {
 public:
  SimOS(const topology::Machine* machine, sim::Engine* engine,
        ContentionModel* contention, perf::SystemCounters* sys);
  ~SimOS();

  SimOS(const SimOS&) = delete;
  SimOS& operator=(const SimOS&) = delete;

  void SetPolicy(MemPolicy policy, int preferred_node = 0) {
    policy_ = policy;
    preferred_node_ = preferred_node;
  }
  MemPolicy policy() const { return policy_; }
  const topology::Machine& machine() const { return *machine_; }

  /// THP fault path: when on, the first touch of an untouched 2M-aligned
  /// run faults in the whole run as one huge page on one node.
  void SetThpFaultAlloc(bool on) { thp_fault_alloc_ = on; }

  /// Attaches the faultlab runtime: per-node capacities are capped per
  /// the plan and offline events become live. Null (the default) keeps
  /// capacities at Machine::node_memory_bytes and costs one branch on the
  /// bind slow path.
  void SetFaultLab(faultlab::FaultLab* faults);

  /// Maps `bytes` (rounded up to 4K; regions are 2M-aligned within the
  /// slab). Pages are bound immediately for Interleave/LocalAlloc/Preferred
  /// and lazily (at first touch) for FirstTouch. Does not charge cycles —
  /// the calling allocator charges its own syscall cost. Returns nullptr
  /// when the simulated address space is exhausted — the allocator chain
  /// propagates the failure up to Env::TryAlloc as Status::OutOfMemory.
  Region* TryMap(uint64_t bytes, bool thp_eligible = true);

  /// Linux-style zonelist of `node`: all nodes ordered by distance
  /// (Machine::Hops, ties by node id), starting with `node` itself. Page
  /// binds walk this order when their desired node is full or offline.
  const std::vector<int>& Zonelist(int node) const {
    return zonelist_[static_cast<size_t>(node)];
  }

  /// Unmaps; the address range is recycled for future mappings.
  void Unmap(Region* region);

  /// MADV_DONTNEED: releases the physical pages of [offset, offset+len);
  /// intersecting huge pages are split first. Subsequent touches re-fault
  /// and re-bind per the current policy.
  void MadviseDontNeed(Region* region, uint64_t offset, uint64_t len,
                       uint64_t now);

  /// Finds the region/page covering `addr`. CHECK-fails on wild addresses.
  std::pair<Region*, size_t> Lookup(uint64_t addr) const;

  /// Ensures the page is bound and resident; returns the node serving it
  /// (the huge-run head's node for collapsed pages). Runs once per DRAM
  /// line, so the no-fault common case — already resident with a bound
  /// home node — stays inline; first touches, THP faults and rebinding
  /// take the out-of-line slow path.
  int Touch(Region* region, size_t idx, int accessor_node) {
    const PageRec& p = region->pages[idx];
    if (p.resident) {
      if (!p.huge) {
        if (p.node >= 0) return p.node;
      } else {
        const PageRec& head = region->pages[region->HugeHead(idx)];
        if (head.node >= 0) return head.node;
      }
    }
    return TouchSlow(region, idx, accessor_node);
  }

  /// Binds the pages backing [addr, addr+len) to `node`: Touch as `node`
  /// (first touch binds there) the page of every 4K step from addr, then
  /// the page of the last byte; with `migrate`, each Touch is followed by
  /// MigratePage(to `node`, at `now`) for pages already bound elsewhere.
  /// No-op when len is 0.
  void TouchRange(uint64_t addr, uint64_t len, int node, bool migrate = false,
                  uint64_t now = 0);

  /// Moves the 4K page (or whole huge run) to `to_node`: kernel copy traffic
  /// is injected into the contention model and subsequent accesses stall
  /// until the copy completes. Used by the AutoNUMA model. Any replicas of
  /// the page are dropped first (the copy supersedes them).
  void MigratePage(Region* region, size_t idx, int to_node, uint64_t now);

  /// Adaptive placement: grants `node` a read replica of the (non-huge,
  /// resident, bound) 4K page. Replicas consume capacity on `node` but are
  /// the first thing reclaimed under pressure — they never displace real
  /// pages (AddReplica fails instead of spilling) and BindWithSpill drops
  /// them to make room before counting a spill. Injects the copy traffic
  /// into the contention model on both nodes. Returns success.
  bool AddReplica(Region* region, size_t idx, int node);

  /// Drops every replica of the page (write invalidation, migration,
  /// madvise, unmap). Pure accounting — the caller charges any simulated
  /// shootdown cost. Safe on pages without replicas.
  void DropPageReplicas(Region* region, size_t idx);

  /// Bytes currently held by replicas on `node` / across the machine.
  uint64_t replica_bytes(int node) const {
    return node_replica_bytes_[static_cast<size_t>(node)];
  }
  uint64_t replica_bytes_total() const { return replica_bytes_total_; }

  /// Collapses the 2M-aligned run starting at head_idx if all 512 pages are
  /// resident, bound, not already huge, and on one node. Returns success.
  bool TryCollapseHuge(Region* region, size_t head_idx, uint64_t now);

  /// Splits a huge run back into 4K pages (keeps their binding).
  void SplitHuge(Region* region, size_t head_idx, uint64_t now);

  /// All live regions in address order (khugepaged scan).
  const std::map<uint64_t, Region*>& regions() const { return regions_; }

  /// Deterministic (slab-relative) form of a host address; feed this to
  /// anything that hashes addresses.
  uint64_t ToSimAddr(uint64_t host_addr) const { return host_addr - slab_; }
  /// Inverse of ToSimAddr.
  uint64_t FromSimAddr(uint64_t sim_addr) const { return sim_addr + slab_; }

  uint64_t resident_bytes() const { return resident_bytes_; }
  uint64_t resident_peak() const { return resident_peak_; }

  /// Monotonic counter bumped whenever the page table mutates in a way that
  /// can invalidate a cached translation (unmap, madvise, page migration,
  /// THP collapse/split). MemSystem's span path drops its within-call page
  /// memos when an AutoNUMA sample changes it.
  uint64_t mutation_generation() const { return mutation_gen_; }

  /// Size of the virtual reservation every simulated address lies in, so
  /// ToSimAddr of any mapped address is below it.
  static constexpr uint64_t kSlabBytes = 48ULL << 30;

 private:
  static constexpr uint64_t kSlotBytes = kHugePageBytes;

  int ChooseBindNode(int accessor_node);
  /// Applies capacity enforcement + zonelist spill to a policy-chosen bind
  /// target for a `bytes`-sized bind (4K page or 2M THP run). Returns
  /// `desired` unchanged in the no-pressure common case.
  int BindWithSpill(int desired, uint64_t bytes = kSmallPageBytes);
  bool NodeHasRoom(int node, uint64_t bytes) const {
    return node_bound_bytes_[static_cast<size_t>(node)] + bytes <= node_cap_;
  }
  /// NodeHasRoom, after reclaiming replicas on `node` if that is what it
  /// takes — replicas are droppable cache, real pages are not.
  bool EnsureRoom(int node, uint64_t bytes);
  void DropReplica(Region* region, size_t idx, int node);
  void AddResident(Region* region, size_t idx);
  int TouchSlow(Region* region, size_t idx, int accessor_node);
  void DropResident(Region* region, size_t idx);

  const topology::Machine* machine_;
  sim::Engine* engine_;
  ContentionModel* contention_;
  perf::SystemCounters* sys_;

  MemPolicy policy_ = MemPolicy::kFirstTouch;
  int preferred_node_ = 0;
  bool thp_fault_alloc_ = false;
  int interleave_cursor_ = 0;

  uint64_t slab_ = 0;          ///< host base of the reservation
  uint64_t bump_slot_ = 0;     ///< next never-used slot
  std::map<uint64_t, std::vector<uint64_t>> free_slots_;  // nslots -> starts
  std::vector<Region*> slot_region_;  ///< slot index -> covering region
  std::map<uint64_t, Region*> regions_;  // key: base address

  uint64_t resident_bytes_ = 0;
  uint64_t resident_peak_ = 0;
  uint64_t mutation_gen_ = 0;
  std::vector<uint64_t> node_bound_bytes_;

  faultlab::FaultLab* faults_ = nullptr;
  uint64_t node_cap_ = 0;                     ///< enforced capacity per node
  std::vector<std::vector<int>> zonelist_;    ///< [node] -> fallback order

  // Adaptive placement replica accounting. The per-node stacks record
  // (region base, page index) of replicas in creation order for
  // reclaim-before-spill; entries are validated lazily against the live
  // replica_mask (a dropped replica or unmapped region leaves a stale
  // entry behind that reclaim skips). Empty unless placement is on.
  std::vector<uint64_t> node_replica_bytes_;
  uint64_t replica_bytes_total_ = 0;
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> replica_stack_;
};

}  // namespace mem
}  // namespace numalab

#endif  // NUMALAB_MEM_SIM_OS_H_
