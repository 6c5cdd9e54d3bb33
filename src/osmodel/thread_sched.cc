#include "src/osmodel/thread_sched.h"

#include <algorithm>

#include "src/sim/sync.h"

namespace numalab {
namespace osmodel {

const char* AffinityName(Affinity a) {
  switch (a) {
    case Affinity::kNone: return "None";
    case Affinity::kSparse: return "Sparse";
    case Affinity::kDense: return "Dense";
  }
  return "?";
}

ThreadScheduler::ThreadScheduler(const topology::Machine* machine,
                                 sim::Engine* engine, mem::MemSystem* memsys,
                                 Affinity affinity, uint64_t seed,
                                 perf::SystemCounters* sys)
    : machine_(machine),
      engine_(engine),
      memsys_(memsys),
      affinity_(affinity),
      rng_(seed),
      sys_(sys),
      hw_load_(static_cast<size_t>(machine->num_hw_threads()), 0) {}

int ThreadScheduler::Place(int worker_index) {
  int nodes = machine_->num_nodes();
  int cpn = machine_->cores_per_node();
  int smt = machine_->smt_per_core();
  int total = machine_->num_hw_threads();

  switch (affinity_) {
    case Affinity::kSparse: {
      // Round-robin across nodes; within a node use every core before any
      // SMT sibling, maximizing the memory controllers in play.
      int i = worker_index % total;
      int node = i % nodes;
      int r = i / nodes;
      int core_in_node = r % cpn;
      int smt_slot = (r / cpn) % smt;
      return (node * cpn + core_in_node) * smt + smt_slot;
    }
    case Affinity::kDense: {
      // Pack into as few sockets as possible: fill every core of node 0
      // (one thread per core), then its SMT slots, then node 1, ...
      int i = worker_index % total;
      int per_node = cpn * smt;
      int node = i / per_node;
      int r = i % per_node;
      int smt_slot = r / cpn;
      int core_in_node = r % cpn;
      return (node * cpn + core_in_node) * smt + smt_slot;
    }
    case Affinity::kNone: {
      // Two-choice placement by the wakeup balancer: decent on average but
      // can stack threads, and nothing keeps them where their data is.
      int a = static_cast<int>(rng_.Uniform(static_cast<uint64_t>(total)));
      int b = static_cast<int>(rng_.Uniform(static_cast<uint64_t>(total)));
      return hw_load_[static_cast<size_t>(a)] <=
                     hw_load_[static_cast<size_t>(b)]
                 ? a
                 : b;
    }
  }
  return 0;
}

void ThreadScheduler::Register(sim::VThread* vt) {
  managed_.push_back(vt);
  hw_load_[static_cast<size_t>(vt->hw_thread)]++;
  RecomputeScales();
}

void ThreadScheduler::Start() {
  if (affinity_ != Affinity::kNone) return;
  engine_->SchedulePeriodic(kBalancePeriodCycles,
                            [this](uint64_t) { return BalanceTick(); });
}

int ThreadScheduler::LeastLoadedHw() {
  int best = 0;
  for (int i = 1; i < static_cast<int>(hw_load_.size()); ++i) {
    if (hw_load_[static_cast<size_t>(i)] < hw_load_[static_cast<size_t>(best)])
      best = i;
  }
  return best;
}

void ThreadScheduler::Migrate(sim::VThread* vt, int hw) {
  if (vt->state == sim::VThreadState::kDone || vt->hw_thread == hw) return;
  hw_load_[static_cast<size_t>(vt->hw_thread)]--;
  vt->hw_thread = hw;
  hw_load_[static_cast<size_t>(hw)]++;
  vt->Charge(mem::kThreadMigrationCycles);
  ++vt->counters.thread_migrations;
  memsys_->OnThreadMigrated(machine_->CoreOfHwThread(hw));
  RecomputeScales();
}

void ThreadScheduler::RecomputeScales() {
  // A hardware thread with k runnable threads gives each 1/k of its cycles;
  // a busy SMT sibling costs a further ~40%.
  int smt = machine_->smt_per_core();
  for (sim::VThread* vt : managed_) {
    if (vt->state == sim::VThreadState::kDone) continue;
    int load = std::max(1, hw_load_[static_cast<size_t>(vt->hw_thread)]);
    double scale = static_cast<double>(load);
    if (smt > 1) {
      int core = machine_->CoreOfHwThread(vt->hw_thread);
      for (int s = 0; s < smt; ++s) {
        int sibling = core * smt + s;
        if (sibling != vt->hw_thread &&
            hw_load_[static_cast<size_t>(sibling)] > 0) {
          scale *= 1.4;
          break;
        }
      }
    }
    vt->cycle_scale = scale;
  }
}

bool ThreadScheduler::BalanceTick() {
  int live = 0;
  for (sim::VThread* vt : managed_) {
    if (vt->state != sim::VThreadState::kDone) ++live;
  }
  if (live == 0) return false;  // run over; stop rescheduling

  // Periodic load balancing: pull a thread off the busiest hardware thread.
  int busiest = 0;
  for (int i = 1; i < static_cast<int>(hw_load_.size()); ++i) {
    if (hw_load_[static_cast<size_t>(i)] >
        hw_load_[static_cast<size_t>(busiest)])
      busiest = i;
  }
  if (hw_load_[static_cast<size_t>(busiest)] > 1) {
    for (sim::VThread* vt : managed_) {
      if (vt->state != sim::VThreadState::kDone && vt->hw_thread == busiest) {
        Migrate(vt, LeastLoadedHw());
        ++sys_->balancer_migrations;
        break;
      }
    }
  }

  // Noise migrations: wakeup balancing, idle stealing, interrupts landing on
  // loaded CPUs. Each tick, every thread has a small chance of being moved
  // somewhere it did not choose — sometimes onto an occupied hw thread.
  for (sim::VThread* vt : managed_) {
    if (vt->state == sim::VThreadState::kDone) continue;
    if (rng_.Bernoulli(0.13)) {
      int target;
      if (rng_.Bernoulli(0.75)) {
        target = LeastLoadedHw();
      } else {
        target = static_cast<int>(
            rng_.Uniform(static_cast<uint64_t>(machine_->num_hw_threads())));
      }
      Migrate(vt, target);
      ++sys_->balancer_migrations;
    }
  }
  return true;
}

}  // namespace osmodel
}  // namespace numalab
