// Thread placement and the OS load-balancing scheduler model.
//
// With Sparse/Dense affinity, worker threads are pinned: placement is
// computed once and never changes (Section III-B of the paper).
//
// With Affinity::kNone the model mimics a general-purpose kernel scheduler:
// initial placement by two-choice load balancing from a seeded RNG, periodic
// rebalancing that moves a thread from the busiest to an idle hardware
// thread, and occasional "noise" migrations (wakeup/idle balancing, thermal
// spreading). Each migration flushes the thread's TLB, leaves its cache
// working set behind and charges a context-switch cost; temporary stacking
// of threads on one hardware thread divides their cycle rate. This is the
// machinery behind the paper's Fig. 3 (run-to-run variance) and Table III
// (33k migrations, +50% cache misses).

#ifndef NUMALAB_OSMODEL_THREAD_SCHED_H_
#define NUMALAB_OSMODEL_THREAD_SCHED_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/mem_system.h"
#include "src/osmodel/os_config.h"
#include "src/sim/engine.h"
#include "src/topology/machine.h"

namespace numalab {
namespace osmodel {

class ThreadScheduler {
 public:
  ThreadScheduler(const topology::Machine* machine, sim::Engine* engine,
                  mem::MemSystem* memsys, Affinity affinity, uint64_t seed,
                  perf::SystemCounters* sys);

  /// Hardware thread for the i-th worker (i = 0, 1, ...).
  int Place(int worker_index);

  /// Registers a spawned worker for balancing/oversubscription accounting.
  void Register(sim::VThread* vt);

  /// Installs the periodic balancing events (only acts for kNone).
  void Start();

  /// Moves `vt` to hardware thread `hw` (used by the scheduler itself and by
  /// the AutoNUMA task balancer). Charges migration cost and flushes state.
  void Migrate(sim::VThread* vt, int hw);

  /// Number of managed threads currently on each hardware thread.
  const std::vector<int>& hw_load() const { return hw_load_; }

  Affinity affinity() const { return affinity_; }

 private:
  static constexpr uint64_t kBalancePeriodCycles = 2'000'000;  // ~1ms at 2GHz

  /// One balancing pass; false once every managed thread is done (stops
  /// the balancer).
  bool BalanceTick();
  void RecomputeScales();
  int LeastLoadedHw();

  const topology::Machine* machine_;
  sim::Engine* engine_;
  mem::MemSystem* memsys_;
  Affinity affinity_;
  Rng rng_;
  perf::SystemCounters* sys_;
  std::vector<sim::VThread*> managed_;
  std::vector<int> hw_load_;
};

}  // namespace osmodel
}  // namespace numalab

#endif  // NUMALAB_OSMODEL_THREAD_SCHED_H_
