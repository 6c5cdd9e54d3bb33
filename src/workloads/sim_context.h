// SimContext assembles one complete simulated run: machine, engine, memory
// system, OS models, allocator — wired per a RunConfig — and spawns worker
// coroutines.

#ifndef NUMALAB_WORKLOADS_SIM_CONTEXT_H_
#define NUMALAB_WORKLOADS_SIM_CONTEXT_H_

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "src/alloc/allocator.h"
#include "src/faultlab/faultlab.h"
#include "src/mem/mem_system.h"
#include "src/osmodel/autonuma.h"
#include "src/osmodel/thp.h"
#include "src/osmodel/thread_sched.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/trace/trace.h"
#include "src/workloads/env.h"
#include "src/workloads/run_config.h"

namespace numalab {
namespace workloads {

class SimContext {
 public:
  explicit SimContext(const RunConfig& config);

  /// Spawns `config.threads` workers placed per the affinity strategy. The
  /// body factory receives each worker's Env (owned by the context; valid
  /// for the run's lifetime).
  void SpawnWorkers(const std::function<sim::Task(Env&)>& body);

  /// Runs to completion; fills the non-workload fields of `result`.
  void Finish(RunResult* result);

  const RunConfig& config() const { return config_; }
  const topology::Machine& machine() const { return machine_; }
  sim::Engine* engine() { return &engine_; }
  mem::MemSystem* memsys() { return memsys_.get(); }
  alloc::SimAllocator* allocator() { return allocator_.get(); }
  sim::SimBarrier* barrier() { return &barrier_; }
  /// Non-null iff this run has race detection attached (config.race_detect
  /// or the process-wide --race-detect mode).
  sanity::RaceDetector* race() { return race_.get(); }
  /// Non-null iff this run records phase spans (config.trace or the
  /// process-wide --json-out / --trace-out collection mode).
  trace::TraceRecorder* trace_recorder() { return trace_.get(); }
  /// Non-null iff a fault plan (config.faults or the process-wide
  /// --faultlab mode) is active for this run.
  faultlab::FaultLab* faults() { return faults_.get(); }

  /// An Env bound to this run's engine, memory system, allocator and run
  /// status, with no thread (`self` is null) and worker 0 of 1: what setup
  /// code uses outside any coroutine. SpawnWorkers builds each worker's Env
  /// from it. Structures that keep a reference to their setup Env (such as
  /// ConcurrentHashTable) need the result bound to a named local that
  /// outlives them.
  Env MakeEnv();

  /// Allocates an uninitialised array of `count` T through the run's
  /// allocator. Setup code calls it outside any worker, so nothing is
  /// charged; unlike CopyInput it does not pretouch.
  template <typename T>
  T* AllocInput(size_t count) {
    return static_cast<T*>(allocator_->Alloc(count * sizeof(T)));
  }
  /// Stages a host-generated input in simulated memory: AllocInput, copy
  /// `host` in, then pretouch it on node 0 as if a single producer thread
  /// there had generated it (see PretouchAsNode).
  template <typename T>
  T* CopyInput(const std::vector<T>& host) {
    T* p = AllocInput<T>(host.size());
    std::memcpy(p, host.data(), host.size() * sizeof(T));
    PretouchAsNode(memsys_.get(), p, host.size() * sizeof(T), /*node=*/0);
    return p;
  }

 private:
  RunConfig config_;
  topology::Machine machine_;
  // Must outlive engine_: ~Engine destroys outstanding coroutine frames,
  // whose ScopedSpan locals call back into the recorder.
  std::unique_ptr<trace::TraceRecorder> trace_;  // may be null (default)
  sim::Engine engine_;
  perf::SystemCounters sys_;
  std::unique_ptr<mem::MemSystem> memsys_;  // must precede sched_
  // Must outlive the allocator and SimOS, which hold raw pointers to it.
  std::unique_ptr<faultlab::FaultLab> faults_;  // may be null (default)
  std::unique_ptr<sanity::RaceDetector> race_;  // may be null (default)
  osmodel::ThreadScheduler sched_;
  std::unique_ptr<alloc::SimAllocator> allocator_;
  std::unique_ptr<osmodel::AutoNuma> autonuma_;
  std::unique_ptr<osmodel::ThpDaemon> thp_;
  sim::SimBarrier barrier_;
  std::vector<std::unique_ptr<Env>> envs_;
  Status run_status_;
};

}  // namespace workloads
}  // namespace numalab

#endif  // NUMALAB_WORKLOADS_SIM_CONTEXT_H_
