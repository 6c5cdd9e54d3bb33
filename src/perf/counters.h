// Simulated performance counters.
//
// The paper profiles its workloads with perf/LIKWID (Table III, Fig. 5b).
// Because our substrate is a simulator, the equivalent counters are exact:
// every simulated memory access, TLB walk, migration and page move is
// counted here.

#ifndef NUMALAB_PERF_COUNTERS_H_
#define NUMALAB_PERF_COUNTERS_H_

#include <cstdint>

namespace numalab {
namespace perf {

/// \brief Counters accumulated per virtual thread; aggregated into a
/// PerfReport at the end of a run.
struct ThreadCounters {
  uint64_t cycles = 0;            ///< virtual cycles consumed
  uint64_t thread_migrations = 0; ///< times the OS moved this thread
  uint64_t mem_accesses = 0;      ///< logical loads+stores charged
  uint64_t private_hits = 0;      ///< served by the core-private cache
  uint64_t llc_hits = 0;          ///< served by the node LLC
  uint64_t llc_misses = 0;        ///< went to DRAM
  uint64_t local_dram = 0;        ///< DRAM accesses to the local node
  uint64_t remote_dram = 0;       ///< DRAM accesses over the interconnect
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;        ///< page walks
  uint64_t hinting_faults = 0;    ///< AutoNUMA NUMA-hinting faults taken
  uint64_t alloc_calls = 0;
  uint64_t free_calls = 0;
  uint64_t alloc_cycles = 0;      ///< cycles spent inside the allocator
  uint64_t lock_wait_cycles = 0;  ///< virtual-time lock queueing delay
  uint64_t queue_delay_cycles = 0;///< controller/link bandwidth queueing

  void Add(const ThreadCounters& o) {
    cycles += o.cycles;
    thread_migrations += o.thread_migrations;
    mem_accesses += o.mem_accesses;
    private_hits += o.private_hits;
    llc_hits += o.llc_hits;
    llc_misses += o.llc_misses;
    local_dram += o.local_dram;
    remote_dram += o.remote_dram;
    tlb_hits += o.tlb_hits;
    tlb_misses += o.tlb_misses;
    hinting_faults += o.hinting_faults;
    alloc_calls += o.alloc_calls;
    free_calls += o.free_calls;
    alloc_cycles += o.alloc_cycles;
    lock_wait_cycles += o.lock_wait_cycles;
    queue_delay_cycles += o.queue_delay_cycles;
  }

  /// Componentwise difference against an earlier snapshot of the same
  /// monotonically increasing counter set (span deltas, src/trace).
  ThreadCounters Minus(const ThreadCounters& o) const {
    ThreadCounters d;
    d.cycles = cycles - o.cycles;
    d.thread_migrations = thread_migrations - o.thread_migrations;
    d.mem_accesses = mem_accesses - o.mem_accesses;
    d.private_hits = private_hits - o.private_hits;
    d.llc_hits = llc_hits - o.llc_hits;
    d.llc_misses = llc_misses - o.llc_misses;
    d.local_dram = local_dram - o.local_dram;
    d.remote_dram = remote_dram - o.remote_dram;
    d.tlb_hits = tlb_hits - o.tlb_hits;
    d.tlb_misses = tlb_misses - o.tlb_misses;
    d.hinting_faults = hinting_faults - o.hinting_faults;
    d.alloc_calls = alloc_calls - o.alloc_calls;
    d.free_calls = free_calls - o.free_calls;
    d.alloc_cycles = alloc_cycles - o.alloc_cycles;
    d.lock_wait_cycles = lock_wait_cycles - o.lock_wait_cycles;
    d.queue_delay_cycles = queue_delay_cycles - o.queue_delay_cycles;
    return d;
  }
};

/// \brief System-wide counters maintained by the OS/memory models.
struct SystemCounters {
  uint64_t page_migrations = 0;       ///< AutoNUMA page moves
  uint64_t thp_collapses = 0;         ///< 4K runs merged into 2M pages
  uint64_t thp_splits = 0;            ///< 2M pages split back
  uint64_t pages_mapped = 0;
  uint64_t bytes_mapped = 0;          ///< OS memory handed to allocators
  uint64_t bytes_mapped_peak = 0;
  uint64_t balancer_migrations = 0;   ///< load-balancer thread moves

  // Adaptive placement (DESIGN.md section 12; all zero when disabled).
  uint64_t pages_replicated = 0;       ///< per-node replica copies created
  uint64_t replica_reads = 0;          ///< DRAM reads served by a local replica
  uint64_t replica_writes = 0;         ///< writes that hit a replicated page
  uint64_t replica_invalidations = 0;  ///< write-triggered shootdown events
  uint64_t replica_drops = 0;          ///< replica copies released (any cause)
  uint64_t replica_bytes_peak = 0;     ///< peak bytes held by replicas
  uint64_t migrations_vetoed = 0;      ///< cost-aware gate rejected the move
  uint64_t capacity_bytes_total = 0;   ///< sum of enforced node capacities

  // faultlab degradation counters (all zero in a no-fault run).
  uint64_t pages_spilled = 0;          ///< binds redirected off a full node
  uint64_t oom_last_resort_pages = 0;  ///< every zone full; bound anyway
  uint64_t offline_redirects = 0;      ///< binds redirected off offline nodes
  uint64_t all_offline_binds = 0;      ///< every node offline; bound offline
  uint64_t alloc_failures_injected = 0;
  uint64_t migration_failures_injected = 0;
};

/// \brief Aggregated result of one simulated run.
struct PerfReport {
  ThreadCounters threads;  ///< sum over all worker threads
  SystemCounters system;

  /// Local Access Ratio: local DRAM accesses / all DRAM accesses
  /// (the paper's LAR, Fig. 5b). 1.0 when there was no DRAM traffic.
  double LocalAccessRatio() const {
    uint64_t total = threads.local_dram + threads.remote_dram;
    if (total == 0) return 1.0;
    return static_cast<double>(threads.local_dram) /
           static_cast<double>(total);
  }
};

}  // namespace perf
}  // namespace numalab

#endif  // NUMALAB_PERF_COUNTERS_H_
