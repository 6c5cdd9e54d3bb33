// AutoNUMA (kernel numa_balancing) model.
//
// Two halves, as in the kernel:
//  * Page placement: NUMA-hinting faults are sampled on the DRAM access path
//    (MemSystem::SampleAutoNuma) and promote pages toward their accessors,
//    cost-oblivious — shared pages ping-pong between nodes.
//  * Task placement: this daemon periodically inspects each thread's DRAM
//    traffic per node and migrates the thread toward the node holding most
//    of its data (only when the user has not pinned threads).
//
// The paper's two criticisms are modelled faithfully: migrations are issued
// regardless of their cost, and locality is maximized with no regard for
// memory-controller contention.

#ifndef NUMALAB_OSMODEL_AUTONUMA_H_
#define NUMALAB_OSMODEL_AUTONUMA_H_

#include <cstdint>

#include "src/mem/mem_system.h"
#include "src/osmodel/thread_sched.h"
#include "src/sim/engine.h"

namespace numalab {
namespace osmodel {

class AutoNuma {
 public:
  AutoNuma(const topology::Machine* machine, sim::Engine* engine,
           mem::MemSystem* memsys, ThreadScheduler* sched)
      : machine_(machine), engine_(engine), memsys_(memsys), sched_(sched) {}

  /// Enables hinting-fault sampling and starts the task balancer.
  void Start() {
    memsys_->SetAutoNumaSampling(true);
    engine_->SchedulePeriodic(kPeriodCycles,
                              [this](uint64_t) { return Tick(); });
  }

 private:
  static constexpr uint64_t kPeriodCycles = 4'000'000;

  /// One balancer pass; false once the run is over (stops the daemon).
  bool Tick();

  const topology::Machine* machine_;
  sim::Engine* engine_;
  mem::MemSystem* memsys_;
  ThreadScheduler* sched_;
};

}  // namespace osmodel
}  // namespace numalab

#endif  // NUMALAB_OSMODEL_AUTONUMA_H_
