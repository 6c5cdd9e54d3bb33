#include "src/faultlab/faultlab.h"

#include <algorithm>

namespace numalab {
namespace faultlab {

namespace {
// Mirrors the scheduler's per-run-index perturbation (sim_context.cc) with
// a distinct odd multiplier so fault draws and scheduler noise decorrelate.
uint64_t MixSeed(uint64_t seed, uint64_t run_index) {
  SplitMix64 sm(seed ^ (run_index * 0x9e3779b97f4a7c15ULL));
  sm.Next();
  return sm.Next();
}
constexpr uint64_t kSmallPageBytes = 4096;
}  // namespace

FaultLab::FaultLab(const FaultPlan& plan, uint64_t seed, uint64_t run_index,
                   perf::SystemCounters* sys)
    : plan_(plan),
      rng_(MixSeed(seed, run_index)),
      sys_(sys) {}

uint64_t FaultLab::NodeCapacityBytes(uint64_t machine_bytes) const {
  if (plan_.node_capacity_bytes == 0) return machine_bytes;
  return std::max(plan_.node_capacity_bytes, kSmallPageBytes);
}

bool FaultLab::NodeOnline(int node, uint64_t now) const {
  for (const NodeOffline& off : plan_.offline) {
    if (off.node == node && now >= off.at_cycle) return false;
  }
  return true;
}

bool FaultLab::DrawAllocFailure() {
  if (plan_.alloc_fail_prob <= 0.0) return false;
  if (!rng_.Bernoulli(plan_.alloc_fail_prob)) return false;
  ++sys_->alloc_failures_injected;
  return true;
}

FaultPlan MemoryPressurePlan(uint64_t node_capacity_bytes) {
  FaultPlan plan;
  plan.node_capacity_bytes = node_capacity_bytes;
  return plan;
}

}  // namespace faultlab
}  // namespace numalab
