// FaultPlan — declarative description of the faults injected into one
// simulated run (RunConfig::faults).
//
// A default-constructed plan is inert: enabled() is false, no subsystem
// attaches a FaultLab, and every run is bit-identical to a build without
// faultlab at all. A non-default plan is threaded through SimContext into
// SimOS (capacity + spill + offline nodes) and the allocator chain
// (allocation-failure injection). All randomness the plan triggers flows
// through the run's seeded RNG, so the same seed + plan reproduces the
// identical RunResult.
//
// This header is pure configuration — no simulator dependencies — so
// RunConfig can include it without dragging mem/ into every translation
// unit.

#ifndef NUMALAB_FAULTLAB_FAULT_PLAN_H_
#define NUMALAB_FAULTLAB_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

namespace numalab {
namespace faultlab {

/// \brief Takes `node` offline once virtual time reaches `at_cycle`:
/// new page binds and migration targets skip it (existing pages keep
/// serving — the model is a node withdrawn from allocation, not poweroff).
struct NodeOffline {
  int node = -1;
  uint64_t at_cycle = 0;
};

struct FaultPlan {
  /// Per-node capacity cap in bytes; 0 = uncapped (the machine's real
  /// Machine::node_memory_bytes).
  uint64_t node_capacity_bytes = 0;

  /// Probability that one allocator call fails with a simulated ENOMEM.
  /// Drawn once per SimAllocator::TryAlloc from a worker thread.
  double alloc_fail_prob = 0.0;

  /// Nodes withdrawn from allocation at a virtual cycle.
  std::vector<NodeOffline> offline;

  /// True when any field differs from the inert default.
  bool enabled() const {
    return node_capacity_bytes != 0 || alloc_fail_prob != 0.0 ||
           !offline.empty();
  }
};

}  // namespace faultlab
}  // namespace numalab

#endif  // NUMALAB_FAULTLAB_FAULT_PLAN_H_
