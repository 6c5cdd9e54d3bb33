// Transparent Hugepages model (khugepaged + fault-path huge allocation).
//
// With THP enabled:
//  * SimOS::Touch is put into huge-fault mode: the first touch of an
//    untouched, 2M-aligned, fully-unbound run faults in the entire 2M page
//    at once, bound to one node (coarse placement, instant +2M RSS).
//  * This daemon (khugepaged) additionally walks mapped regions in the
//    background and collapses eligible 4K runs, injecting copy traffic and
//    stalling accessors — the churn that makes THP a net loss for
//    allocators that release memory eagerly (paper Fig. 5c).
//
// Note: huge-fault mode is modelled inside SimOS via Touch granularity; this
// file drives the collapse scan.

#ifndef NUMALAB_OSMODEL_THP_H_
#define NUMALAB_OSMODEL_THP_H_

#include <cstdint>

#include "src/mem/mem_system.h"
#include "src/sim/engine.h"

namespace numalab {
namespace osmodel {

class ThpDaemon {
 public:
  ThpDaemon(sim::Engine* engine, mem::MemSystem* memsys)
      : engine_(engine), memsys_(memsys) {}

  void Start() {
    engine_->SchedulePeriodic(kPeriodCycles,
                              [this](uint64_t now) { return Tick(now); });
  }

 private:
  static constexpr uint64_t kPeriodCycles = 3'000'000;

  /// One khugepaged scan; false once the run is over (stops the daemon).
  bool Tick(uint64_t now);

  sim::Engine* engine_;
  mem::MemSystem* memsys_;
  uint64_t region_cursor_ = 0;
  static constexpr int kMaxCollapsesPerScan = 32;
};

}  // namespace osmodel
}  // namespace numalab

#endif  // NUMALAB_OSMODEL_THP_H_
