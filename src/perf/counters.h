// Simulated performance counters.
//
// The paper profiles its workloads with perf/LIKWID (Table III, Fig. 5b).
// Because our substrate is a simulator, the equivalent counters are exact:
// every simulated memory access, TLB walk, migration and page move is
// counted here.
//
// Each counter set is spelled out once, as an X-macro list below: the
// struct declares its members from it, and the field tables generated from
// the same list are what Add, Minus, the JSON export (src/trace/export.cc)
// and the parity tests walk. A member declared by hand outside the list
// fails the sizeof static_asserts.

#ifndef NUMALAB_PERF_COUNTERS_H_
#define NUMALAB_PERF_COUNTERS_H_

#include <cstdint>
#include <iterator>

namespace numalab {
namespace perf {

/// Per-virtual-thread counters, in declaration and JSON order.
#define NUMALAB_THREAD_COUNTERS(X)                                       \
  X(cycles)             /* virtual cycles consumed */                    \
  X(thread_migrations)  /* times the OS moved this thread */             \
  X(mem_accesses)       /* logical loads+stores charged */               \
  X(private_hits)       /* served by the core-private cache */           \
  X(llc_hits)           /* served by the node LLC */                     \
  X(llc_misses)         /* went to DRAM */                               \
  X(local_dram)         /* DRAM accesses to the local node */            \
  X(remote_dram)        /* DRAM accesses over the interconnect */        \
  X(tlb_hits)                                                            \
  X(tlb_misses)         /* page walks */                                 \
  X(hinting_faults)     /* AutoNUMA NUMA-hinting faults taken */         \
  X(alloc_calls)                                                         \
  X(free_calls)                                                          \
  X(alloc_cycles)       /* cycles spent inside the allocator */          \
  X(lock_wait_cycles)   /* virtual-time lock queueing delay */           \
  X(queue_delay_cycles) /* controller/link bandwidth queueing */

/// System counters of the OS models (the JSON "system" object's first
/// line).
#define NUMALAB_OS_COUNTERS(X)                                           \
  X(page_migrations)     /* AutoNUMA page moves */                       \
  X(thp_collapses)       /* 4K runs merged into 2M pages */              \
  X(thp_splits)          /* 2M pages split back */                       \
  X(pages_mapped)                                                        \
  X(bytes_mapped)        /* OS memory handed to allocators */            \
  X(bytes_mapped_peak)                                                   \
  X(balancer_migrations) /* load-balancer thread moves */

/// Adaptive placement (DESIGN.md section 12; all zero when disabled).
#define NUMALAB_PLACEMENT_COUNTERS(X)                                    \
  X(pages_replicated)      /* per-node replica copies created */         \
  X(replica_reads)         /* DRAM reads served by a local replica */    \
  X(replica_writes)        /* writes that hit a replicated page */       \
  X(replica_invalidations) /* write-triggered shootdown events */        \
  X(replica_drops)         /* replica copies released (any cause) */     \
  X(replica_bytes_peak)    /* peak bytes held by replicas */             \
  X(migrations_vetoed)     /* cost-aware gate rejected the move */       \
  X(capacity_bytes_total)  /* sum of enforced node capacities */

/// faultlab degradation counters (all zero in a no-fault run).
#define NUMALAB_DEGRADATION_COUNTERS(X)                                  \
  X(pages_spilled)         /* binds redirected off a full node */        \
  X(oom_last_resort_pages) /* every zone full; bound anyway */           \
  X(offline_redirects)     /* binds redirected off offline nodes */      \
  X(all_offline_binds)     /* every node offline; bound offline */       \
  X(alloc_failures_injected)                                             \
  X(migration_failures_injected)

#define NUMALAB_COUNTER_MEMBER(name) uint64_t name = 0;

/// \brief Counters accumulated per virtual thread; aggregated into a
/// PerfReport at the end of a run.
struct ThreadCounters {
  NUMALAB_THREAD_COUNTERS(NUMALAB_COUNTER_MEMBER)

  void Add(const ThreadCounters& o);
  /// Componentwise difference against an earlier snapshot of the same
  /// monotonically increasing counter set (span deltas, src/trace).
  ThreadCounters Minus(const ThreadCounters& o) const;
};

/// \brief System-wide counters maintained by the OS/memory models.
struct SystemCounters {
  NUMALAB_OS_COUNTERS(NUMALAB_COUNTER_MEMBER)
  NUMALAB_PLACEMENT_COUNTERS(NUMALAB_COUNTER_MEMBER)
  NUMALAB_DEGRADATION_COUNTERS(NUMALAB_COUNTER_MEMBER)
};

#undef NUMALAB_COUNTER_MEMBER

/// \brief One named member of a counter struct.
template <typename Counters>
struct CounterField {
  const char* name;
  uint64_t Counters::*member;
};

#define NUMALAB_THREAD_FIELD(name) {#name, &ThreadCounters::name},
#define NUMALAB_SYSTEM_FIELD(name) {#name, &SystemCounters::name},
inline constexpr CounterField<ThreadCounters> kThreadCounterFields[] = {
    NUMALAB_THREAD_COUNTERS(NUMALAB_THREAD_FIELD)};
inline constexpr CounterField<SystemCounters> kOsCounterFields[] = {
    NUMALAB_OS_COUNTERS(NUMALAB_SYSTEM_FIELD)};
inline constexpr CounterField<SystemCounters> kPlacementCounterFields[] = {
    NUMALAB_PLACEMENT_COUNTERS(NUMALAB_SYSTEM_FIELD)};
inline constexpr CounterField<SystemCounters> kDegradationCounterFields[] = {
    NUMALAB_DEGRADATION_COUNTERS(NUMALAB_SYSTEM_FIELD)};
#undef NUMALAB_THREAD_FIELD
#undef NUMALAB_SYSTEM_FIELD

static_assert(std::size(kThreadCounterFields) * sizeof(uint64_t) ==
                  sizeof(ThreadCounters),
              "every ThreadCounters member belongs in NUMALAB_THREAD_COUNTERS");
static_assert((std::size(kOsCounterFields) +
               std::size(kPlacementCounterFields) +
               std::size(kDegradationCounterFields)) *
                      sizeof(uint64_t) ==
                  sizeof(SystemCounters),
              "every SystemCounters member belongs in one of its lists");

inline void ThreadCounters::Add(const ThreadCounters& o) {
  for (const auto& f : kThreadCounterFields) this->*f.member += o.*f.member;
}

inline ThreadCounters ThreadCounters::Minus(const ThreadCounters& o) const {
  ThreadCounters d;
  for (const auto& f : kThreadCounterFields) {
    d.*f.member = this->*f.member - o.*f.member;
  }
  return d;
}

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
