// Adaptive data placement (ROADMAP: hot-page replication + cost-aware
// migration) — configuration knobs.
//
// The mechanism lives in SimOS (replica accounting, reclaim-before-spill)
// and MemSystem (per-access replica routing, hot/cold tracking on the
// AutoNUMA hinting-fault hook, benefit/cost gates). Stock AutoNUMA — the
// paper's cost-oblivious kernel behaviour — is the `enabled = false`
// default and takes exactly the pre-placement code paths.
//
// Grounded in "Bandwidth-Aware Page Placement in NUMA" (weight moves by
// measured benefit, not samples alone) and Phoenix (placement must be
// per-workload and dynamic); see PAPERS.md.

#ifndef NUMALAB_MEM_PLACEMENT_H_
#define NUMALAB_MEM_PLACEMENT_H_

#include <cstdint>

namespace numalab {
namespace mem {

/// \brief Knobs for the adaptive placement layer. All tracking is sampled
/// on the existing AutoNUMA hinting-fault path, so `enabled` only has an
/// effect while AutoNUMA sampling is on (SimContext starts the AutoNuma
/// daemon whenever placement is enabled).
struct PlacementConfig {
  /// Master switch. Off: stock AutoNUMA, bit-identical to the seed. On:
  /// read-hot pages gain per-node replicas (reads are served by the local
  /// copy, writes invalidate every copy and pay a shootdown), and AutoNUMA
  /// promotions are gated on modeled benefit (remote-access savings over
  /// the observed sample window) exceeding modeled copy cost, replacing
  /// the kernel's unconditional threshold+backoff rule.
  bool enabled = false;

  /// Minimum page heat (saturating per-fault accumulator, decayed each
  /// AutoNUMA scan wave) before a page counts as hot for replication.
  uint16_t min_heat = 32;

  /// Noise margin on the cost-aware migration gate: modeled savings must
  /// exceed `migrate_hysteresis x` the modeled cost before a page moves.
  /// Under symmetric sharing (every node reads the page about equally) the
  /// per-node sample counts random-walk, and 1x lets a transient lead
  /// trigger a move whose copy stalls readers behind `migrating_until`;
  /// higher values demand a sustained imbalance. 1 is the break-even gate.
  uint32_t migrate_hysteresis = 1;
};

}  // namespace mem
}  // namespace numalab

#endif  // NUMALAB_MEM_PLACEMENT_H_
