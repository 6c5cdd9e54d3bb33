#include "src/workloads/sim_context.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "src/trace/export.h"

namespace numalab {
namespace workloads {

namespace {
bool g_race_detect = false;
faultlab::FaultPlan g_fault_plan;
}  // namespace

bool GlobalRaceDetect() { return g_race_detect; }
void SetGlobalRaceDetect(bool on) { g_race_detect = on; }

const faultlab::FaultPlan& GlobalFaultPlan() { return g_fault_plan; }
void SetGlobalFaultPlan(const faultlab::FaultPlan& plan) {
  g_fault_plan = plan;
}

const char* DatasetName(Dataset d) {
  switch (d) {
    case Dataset::kMovingCluster: return "MovingCluster";
    case Dataset::kSequential: return "Sequential";
    case Dataset::kZipf: return "Zipf";
  }
  return "?";
}

SimContext::SimContext(const RunConfig& config)
    : config_(config),
      machine_(topology::MachineByName(config.machine)),
      engine_(kQuantumCycles),
      memsys_(std::make_unique<mem::MemSystem>(&machine_, &engine_,
                                               config.costs, &sys_)),
      sched_(&machine_, &engine_, memsys_.get(), config.affinity,
             config.seed + static_cast<uint64_t>(config.run_index) * 7919,
             &sys_),
      barrier_(&engine_, config.threads) {
  memsys_->os()->SetPolicy(config.policy, config.preferred_node);
  memsys_->SetScalarReference(config.scalar_mem_path);
  memsys_->SetPlacement(config.placement);

  // Fault plan: the run's own plan wins; otherwise the process-wide
  // --faultlab plan. A disabled plan attaches nothing — the no-fault run
  // takes exactly the pre-faultlab code paths.
  const faultlab::FaultPlan& plan =
      config.faults.enabled() ? config.faults : GlobalFaultPlan();
  if (plan.enabled()) {
    faults_ = std::make_unique<faultlab::FaultLab>(
        plan, config.seed, static_cast<uint64_t>(config.run_index), &sys_);
    memsys_->os()->SetFaultLab(faults_.get());
  }
  engine_.SetDeadline(config.deadline_cycles);

  // Attach the span recorder before any worker spawns. Recording is pure
  // bookkeeping (no virtual-time charges), so results are bit-identical
  // with or without it.
  if (config.trace || trace::CollectEnabled()) {
    trace_ = std::make_unique<trace::TraceRecorder>(&machine_);
    engine_.SetTraceRecorder(trace_.get());
  }

  // Attach the race detector before any VThread (daemons included) spawns,
  // so every thread gets its fork edge.
  if (config.race_detect || GlobalRaceDetect()) {
    race_ = std::make_unique<sanity::RaceDetector>();
    engine_.SetRaceDetector(race_.get());
    memsys_->SetRaceDetector(race_.get());
  }

  alloc::AllocEnv aenv{&engine_, memsys_->os(), faults_.get()};
  allocator_ = alloc::MakeAllocator(config.allocator, aenv, &machine_);

  if (config.thp) {
    memsys_->os()->SetThpFaultAlloc(true);
    thp_ = std::make_unique<osmodel::ThpDaemon>(&engine_, memsys_.get());
    thp_->Start();
  }
  // Placement samples on the AutoNUMA hinting-fault hook, so enabling it
  // implies the daemon even when stock numa_balancing is off.
  if (config.autonuma || config.placement) {
    autonuma_ = std::make_unique<osmodel::AutoNuma>(&machine_, &engine_,
                                                    memsys_.get(), &sched_);
    autonuma_->Start();
  }
  sched_.Start();
}

Env SimContext::MakeEnv() {
  Env env;
  env.engine = &engine_;
  env.mem = memsys_.get();
  env.alloc = allocator_.get();
  env.run_status = &run_status_;
  return env;
}

void SimContext::SpawnWorkers(const std::function<sim::Task(Env&)>& body) {
  for (int i = 0; i < config_.threads; ++i) {
    auto env = std::make_unique<Env>(MakeEnv());
    env->worker_index = i;
    env->num_workers = config_.threads;
    Env* raw = env.get();
    envs_.push_back(std::move(env));

    int hw = sched_.Place(i);
    sim::VThread* vt = engine_.Spawn(
        "worker" + std::to_string(i), hw, [raw, &body](sim::VThread* vt) {
          raw->self = vt;
          return body(*raw);
        });
    sched_.Register(vt);
  }
}

void SimContext::Finish(RunResult* result) {
  result->cycles = engine_.Run();
  result->report.threads = engine_.AggregateCounters();
  result->report.system = sys_;
  result->requested_peak = allocator_->stats().requested_peak;
  result->resident_peak = memsys_->os()->resident_peak();

  // Deadline overrides a worker-reported failure: the run did not finish.
  if (engine_.deadline_exceeded()) {
    result->status = Status::DeadlineExceeded("virtual-cycle deadline hit");
  } else {
    result->status = run_status_;
  }
  if (trace_ != nullptr) {
    result->trace.spans = trace_->records();
    for (const auto& t : engine_.threads()) {
      trace::ThreadSummary ts;
      ts.thread_id = t->id;
      ts.name = t->name;
      ts.node = machine_.NodeOfHwThread(t->hw_thread);
      ts.counters = t->counters;
      result->trace.threads.push_back(std::move(ts));
    }
  }

  if (race_ != nullptr) {
    result->races = race_->races_observed();
    for (const auto& r : race_->reports()) {
      result->race_reports.push_back(r.text);
    }
    if (g_race_detect && !race_->clean()) {
      for (const auto& r : race_->reports()) {
        std::fprintf(stderr, "%s\n\n", r.text.c_str());
      }
      std::fprintf(stderr,
                   "numalab::sanity: %" PRIu64
                   " racy access pair(s) detected; failing the run\n",
                   race_->races_observed());
      std::exit(1);
    }
  }
}

}  // namespace workloads
}  // namespace numalab
