// Cycle-cost constants of the simulated memory hierarchy.
//
// The values are order-of-magnitude realistic for the paper's 2006-2016 era
// machines; what matters for the reproduction is their *ratios* (cache hit
// vs DRAM vs remote DRAM vs page walk). The costs are fixed; the only knobs
// are CostModel's ablation switches, which turn whole model layers off for
// the ablation benchmarks.

#ifndef NUMALAB_MEM_COST_MODEL_H_
#define NUMALAB_MEM_COST_MODEL_H_

#include <cstdint>

namespace numalab {
namespace mem {

/// Charged on every logical access (address generation + L1).
inline constexpr uint64_t kBaseAccessCycles = 2;
/// Hit in the core-private cache (L2-ish).
inline constexpr uint64_t kPrivateHitCycles = 12;
/// Hit in the node-shared last-level cache.
inline constexpr uint64_t kLlcHitCycles = 45;
/// TLB miss page-walk penalty.
inline constexpr uint64_t kPageWalkCycles = 40;
/// AutoNUMA NUMA-hinting minor fault (trap + kernel accounting).
inline constexpr uint64_t kHintingFaultCycles = 900;
/// OS moving a thread to another core (context switch + cold start).
inline constexpr uint64_t kThreadMigrationCycles = 30000;
/// Fixed kernel overhead of migrating one 4K page.
inline constexpr uint64_t kPageMigrationCycles = 6000;
/// Collapsing 512 small pages into one huge page (copy + remap).
inline constexpr uint64_t kThpCollapseCycles = 30000;
/// Splitting a huge page back into small pages.
inline constexpr uint64_t kThpSplitCycles = 25000;
/// mmap/brk-style system call issued by an allocator.
inline constexpr uint64_t kSyscallCycles = 4000;

/// Memory-level parallelism: out-of-order cores overlap cache misses, so
/// the *effective* serialized latency of one DRAM access is
/// dram_latency / kMlp.
inline constexpr double kMlp = 6.0;
/// Upper bound for a single access's queueing delay (keeps one lagging
/// thread from reserving a resource absurdly far in the future).
inline constexpr uint64_t kMaxQueueDelayCycles = 4000;

/// \brief Ablation switches (DESIGN.md section 7): each turns one model
/// layer off. All on is the full model.
struct CostModel {
  bool model_contention = true;  ///< controller + link queueing
  bool model_tlb = true;         ///< TLB reach / page walks
  bool model_caches = true;      ///< private + LLC tag arrays
};

inline constexpr uint64_t kCacheLineBytes = 64;
inline constexpr uint64_t kSmallPageBytes = 4096;
inline constexpr uint64_t kHugePageBytes = 2ULL << 20;
inline constexpr int kSmallPagesPerHuge =
    static_cast<int>(kHugePageBytes / kSmallPageBytes);  // 512
inline constexpr int kMaxNumaNodes = 8;

}  // namespace mem
}  // namespace numalab

#endif  // NUMALAB_MEM_COST_MODEL_H_
