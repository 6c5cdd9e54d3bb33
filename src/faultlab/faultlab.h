// FaultLab — per-run runtime behind a FaultPlan: owns the seeded fault RNG,
// answers capacity/online queries, and draws injected allocation failures.
//
// One FaultLab exists per SimContext when the run's plan is enabled; every
// consumer (SimOS, the allocator chain) holds a raw pointer that is null in
// the default no-fault configuration, so the off path costs one predictable
// branch — the same zero-cost contract as the race detector.
//
// Determinism: all draws come from one xoshiro stream seeded from
// (seed, run_index). Draw order is defined by the simulation itself
// (allocation order), which the scalar/span memory paths keep identical by
// the span-parity contract, so the same seed + plan reproduces the
// identical RunResult on either path.

#ifndef NUMALAB_FAULTLAB_FAULTLAB_H_
#define NUMALAB_FAULTLAB_FAULTLAB_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/faultlab/fault_plan.h"
#include "src/perf/counters.h"

namespace numalab {
namespace faultlab {

class FaultLab {
 public:
  /// \param sys counters the injected events are surfaced through (the
  ///        run's SystemCounters; lands in PerfReport/RunResult).
  FaultLab(const FaultPlan& plan, uint64_t seed, uint64_t run_index,
           perf::SystemCounters* sys);

  FaultLab(const FaultLab&) = delete;
  FaultLab& operator=(const FaultLab&) = delete;

  /// Effective capacity of every node given the machine's per-node size:
  /// the plan's cap (never below one small page) if set, else
  /// machine_bytes.
  uint64_t NodeCapacityBytes(uint64_t machine_bytes) const;

  /// False once an offline event for `node` has fired (now >= at_cycle).
  bool NodeOnline(int node, uint64_t now) const;

  /// One Bernoulli draw per allocator call; consumes RNG only when
  /// alloc_fail_prob > 0 so inert dimensions stay draw-free.
  bool DrawAllocFailure();

 private:
  FaultPlan plan_;
  Rng rng_;
  perf::SystemCounters* sys_;
};

/// Canned memory-pressure plan used by the --faultlab=1 bench mode and the
/// scripts/check.sh fault-injection stage: every node capped (default
/// 64 MiB) so bench-sized workloads overflow their hot nodes and must
/// spill, while total capacity still fits the working set (status stays
/// OK — capacity pressure redirects binds, it never fails allocations).
FaultPlan MemoryPressurePlan(uint64_t node_capacity_bytes = 64ULL << 20);

}  // namespace faultlab
}  // namespace numalab

#endif  // NUMALAB_FAULTLAB_FAULTLAB_H_
