#include "src/osmodel/autonuma.h"

namespace numalab {
namespace osmodel {

void AutoNuma::Tick(uint64_t now) {
  if (engine_->live_threads() == 0) return;

  // Periodic PTE scan: a new hinting-fault wave.
  memsys_->ArmAutoNumaWave();

  // Task balancing: move each thread toward the node that served most of
  // its recent DRAM traffic. Pinned threads (Sparse/Dense) are respected,
  // as the kernel respects affinity masks.
  if (sched_->affinity() == Affinity::kNone) {
    for (const auto& t : engine_->threads()) {
      sim::VThread* vt = t.get();
      if (vt->state == sim::VThreadState::kDone) continue;
      const auto& traffic = memsys_->NodeTraffic(vt->id);
      uint64_t total = 0;
      int best = 0;
      for (int n = 0; n < machine_->num_nodes(); ++n) {
        total += traffic[static_cast<size_t>(n)];
        if (traffic[static_cast<size_t>(n)] >
            traffic[static_cast<size_t>(best)]) {
          best = n;
        }
      }
      int cur_node = machine_->NodeOfHwThread(vt->hw_thread);
      if (total >= 64 && best != cur_node &&
          traffic[static_cast<size_t>(best)] * 10 >= total * 6) {
        // >=60% of traffic goes to `best`: follow the memory. Pick the
        // least-loaded hardware thread there.
        int cpn = machine_->cores_per_node();
        int smt = machine_->smt_per_core();
        int base = best * cpn * smt;
        int target = base;
        for (int i = 0; i < cpn * smt; ++i) {
          if (sched_->hw_load()[static_cast<size_t>(base + i)] <
              sched_->hw_load()[static_cast<size_t>(target)]) {
            target = base + i;
          }
        }
        sched_->Migrate(vt, target);
      }
      memsys_->ResetNodeTraffic(vt->id);
    }
  }

  uint64_t when = std::max(now, engine_->MinLiveClock()) + period_;
  engine_->ScheduleEvent(when, [this, when] { Tick(when); });
}

}  // namespace osmodel
}  // namespace numalab
