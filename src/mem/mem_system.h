// MemSystem — the simulated memory hierarchy seen by workload code.
//
// Every logical load/store a workload performs is charged through
// MemSystem::Access: TLB (page walk on miss), core-private cache, node LLC,
// then DRAM with topology latency and controller/link queueing. First-touch
// page binding and AutoNUMA hinting-fault sampling happen on this path, just
// as they do in the kernel's fault handlers.
//
// Two implementations of that contract exist:
//  - the scalar reference path (AccessScalar): one TLB probe, one cache
//    probe chain and one contention charge per logical access / cache line,
//    exactly as documented above; and
//  - the batched span path (AccessSpan / Access): resolves the page table
//    and TLB once per page, coalesces same-line accesses and charges runs
//    of same-epoch DRAM lines with one latency/contention computation.
// The span path is bit-identical to the scalar path by contract — same
// ThreadCounters, same virtual clocks, same cache/TLB/contention state —
// which tests/span_parity_test.cc enforces. SetScalarReference(true)
// routes everything through the reference path for those tests.

#ifndef NUMALAB_MEM_MEM_SYSTEM_H_
#define NUMALAB_MEM_MEM_SYSTEM_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/mem/caches.h"
#include "src/mem/contention.h"
#include "src/mem/cost_model.h"
#include "src/mem/placement.h"
#include "src/mem/sim_os.h"
#include "src/mem/tlb.h"
#include "src/perf/counters.h"
#include "src/sim/engine.h"
#include "src/topology/machine.h"

namespace numalab {
namespace sanity {
class RaceDetector;
}  // namespace sanity
namespace mem {

class MemSystem {
 public:
  MemSystem(const topology::Machine* machine, sim::Engine* engine,
            CostModel costs, perf::SystemCounters* sys);

  SimOS* os() { return os_.get(); }
  ContentionModel* contention() { return &contention_; }

  /// Enables AutoNUMA page-placement sampling (kernel numa_balancing).
  void SetAutoNumaSampling(bool on) { autonuma_ = on; }

  /// Adaptive placement (src/mem/placement.h): hot/cold tracking on the
  /// hinting-fault hook, per-node read replicas and the cost-aware
  /// migration gate. Sampled state only accrues while AutoNUMA sampling is
  /// on (SimContext starts the daemon whenever placement is enabled).
  void SetPlacement(const PlacementConfig& pc) {
    placement_cfg_ = pc;
    placement_ = pc.enabled;
  }
  const PlacementConfig& placement() const { return placement_cfg_; }

  /// Starts a new NUMA-hinting fault wave (the kernel's periodic PTE
  /// scan): advances the placement heat-decay epoch. Called by the
  /// AutoNuma daemon each tick.
  void ArmAutoNumaWave() { ++wave_epoch_; }

  /// Charges one logical access of `bytes` at `addr` by the current thread.
  /// Equivalent to AccessSpan(vt, addr, bytes, /*stride=*/bytes, write).
  void Access(sim::VThread* vt, const void* addr, uint64_t bytes, bool write);

  /// Charges a batched run of logical accesses: one access of
  /// min(stride, remaining) bytes every `stride` bytes over [addr,
  /// addr+bytes). `stride == 0` (or >= bytes) charges the whole range as a
  /// single logical access. Bit-identical, by contract, to the scalar loop
  ///
  ///   for (off = 0; off < bytes; off += stride)
  ///     Access(vt, addr + off, min(stride, bytes - off), write);
  ///
  /// but resolves the TLB/page table once per page, coalesces same-line
  /// accesses, and charges same-epoch DRAM line runs with one
  /// latency/contention computation. Use it for scans whose accesses have
  /// no other simulated work interleaved between them; keep per-access
  /// Access/Read/Write calls when other charges (hash probes, allocator
  /// calls, checkpoints) must interleave in order.
  void AccessSpan(sim::VThread* vt, const void* addr, uint64_t bytes,
                  uint64_t stride, bool write);

  void Read(sim::VThread* vt, const void* addr, uint64_t bytes) {
    Access(vt, addr, bytes, /*write=*/false);
  }
  void Write(sim::VThread* vt, const void* addr, uint64_t bytes) {
    Access(vt, addr, bytes, /*write=*/true);
  }
  /// Pure CPU work (hashing, comparisons) — no memory modelling.
  void Compute(sim::VThread* vt, uint64_t cycles) { vt->Charge(cycles); }

  /// faultlab link degradation: multiplies the precomputed DRAM latency of
  /// every (src, dst) pair whose route crosses one of `links` by `scale`
  /// (truncated). A static table rewrite, so the scalar and span paths stay
  /// bit-identical and the no-fault path never pays for it.
  void ApplyLinkDegradation(const std::vector<int>& links, double scale);

  /// Routes Access/AccessSpan through the unbatched reference
  /// implementation. The span parity tests run fixed workloads under both
  /// settings and require bit-identical results; keep this off otherwise.
  void SetScalarReference(bool on) { scalar_reference_ = on; }

  /// Called by the OS scheduler when a thread lands on a new core: its TLB
  /// entries and private-cache contents there are stale/cold.
  void OnThreadMigrated(int new_core);

  /// Per-thread DRAM traffic split by target node while AutoNUMA sampling is
  /// on; consumed by the AutoNUMA task balancer.
  const std::array<uint64_t, kMaxNumaNodes>& NodeTraffic(int vthread_id);
  void ResetNodeTraffic(int vthread_id);

  /// Invalidate the TLB entry for a migrated page on every core.
  void ShootdownTlb(uint64_t addr);

  /// Attaches the happens-before race detector (src/sanity): Access and
  /// AccessSpan forward every simulated touch to it, and reports gain
  /// node/page detail through a resolver installed here. The detector is
  /// pure bookkeeping — it charges no cycles and never mutates simulator
  /// state, so results are identical with it on or off; when `rd` is null
  /// (the default) the hook is a single predictable branch.
  void SetRaceDetector(sanity::RaceDetector* rd);
  sanity::RaceDetector* race() const { return race_; }

  /// Live view of the run's system counters (the same object RunResult's
  /// degradation fields are copied from at Finish). Lets mid-run observers
  /// (e.g. the serving admission controller) react to spill/OOM pressure
  /// while the run is still executing.
  const perf::SystemCounters* sys() const { return sys_; }

  /// Human-readable placement of a simulated (slab-relative) address:
  /// node, page index and region extent. Safe on wild addresses.
  std::string DescribeSimAddr(uint64_t sim_addr) const;

 private:
  /// Last-translation cache of one virtual thread, used by the span path to
  /// skip SimOS::Lookup while the cached Region provably still covers the
  /// address. Trusted only while both generations match (thread migration /
  /// TLB shootdown bump trans_gen_; unmap, madvise, page migration and THP
  /// collapse/split bump SimOS::mutation_generation()).
  struct SpanCursor {
    Region* region = nullptr;
    uint64_t region_base = 1;
    uint64_t region_end = 0;  ///< empty range: never matches
    uint64_t trans_gen = 0;
    uint64_t os_gen = 0;
  };

  /// Grows both per-thread AutoNUMA state vectors (node_traffic_ and
  /// fault_stride_) to cover `vthread_id`. Every consumer of that state
  /// must go through here, so neither vector is ever indexed short.
  void EnsureThreadState(int vthread_id);

  SpanCursor& CursorFor(int vthread_id);
  Region* ResolveRegion(SpanCursor& cursor, uint64_t host_addr);

  void AccessScalar(sim::VThread* vt, const void* addr, uint64_t bytes,
                    bool write);
  void SpanFast(sim::VThread* vt, uint64_t addr, uint64_t bytes,
                uint64_t stride, bool write);

  /// Hot prefix of AutoNUMA sampling: bumps traffic counts and early-exits
  /// unless this access takes a hinting fault. Runs once per DRAM line, so
  /// it is defined inline in mem_system.cc (its only callers live there).
  void SampleAutoNuma(sim::VThread* vt, Region* region, size_t idx,
                      int accessor_node, int page_node, bool write);
  /// The hinting fault itself: kernel-trap charge, visit/heat bookkeeping,
  /// hot-page replication, and the promotion rule (cost-oblivious stock
  /// AutoNUMA, or the placement benefit/cost gate).
  void SampleAutoNumaFault(sim::VThread* vt, Region* region, size_t idx,
                           int accessor_node, int page_node, bool write);
  /// Per-DRAM-line replica routing: local replicas serve reads; a write to
  /// a replicated page invalidates every copy and charges the shootdown.
  /// Returns the node that actually serves the line. Only called while
  /// placement is enabled; defined inline in mem_system.cc.
  int RouteReplica(sim::VThread* vt, Region* region, size_t idx, int my_node,
                   int page_node, bool write);

  /// dram_latency * LatencyFactor(src,dst) / kMlp, truncated — fixed at
  /// construction, cached so the per-DRAM-line path skips the double math.
  uint64_t DramLatency(int src, int dst) const {
    return lat_table_[static_cast<size_t>(src)][static_cast<size_t>(dst)];
  }

  const topology::Machine* machine_;
  sim::Engine* engine_;
  CostModel costs_;
  perf::SystemCounters* sys_;
  ContentionModel contention_;
  std::unique_ptr<SimOS> os_;
  CacheModel caches_;
  std::vector<Tlb> tlbs_;  // one per physical core
  bool autonuma_ = false;
  bool scalar_reference_ = false;
  bool placement_ = false;
  PlacementConfig placement_cfg_;
  uint64_t wave_epoch_ = 0;  ///< heat-decay epoch, bumped per scan wave
  sanity::RaceDetector* race_ = nullptr;
  std::vector<std::array<uint64_t, kMaxNumaNodes>> node_traffic_;
  std::vector<uint32_t> fault_stride_;  // per-thread sampling countdown
  uint64_t migrate_epoch_ = 0;
  uint64_t migrations_this_epoch_ = 0;
  /// Bumped on thread migration and TLB shootdown; span-path memos compare
  /// against it before trusting a cached translation.
  uint64_t trans_gen_ = 0;
  std::vector<SpanCursor> cursors_;  // per virtual thread
  std::array<std::array<uint64_t, kMaxNumaNodes>, kMaxNumaNodes> lat_table_{};
};

}  // namespace mem
}  // namespace numalab

#endif  // NUMALAB_MEM_MEM_SYSTEM_H_
