#include "src/minidb/runner.h"

#include "src/minidb/tpch_gen.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"
#include "src/workloads/sim_context.h"

namespace numalab {
namespace minidb {

namespace {

using workloads::Env;
using workloads::RunConfig;
using workloads::SimContext;

// The paper disregards the first (cold) run and measures warm runs: the
// first execution settles THP collapse, AutoNUMA's initial migration wave
// and the scheduler; the reported latency is the second execution's.
sim::Task QueryWorker(Env& env, const QueryPlan& cold, const QueryPlan& warm,
                      uint64_t* warm_start, const SystemProfile& prof,
                      sim::SimBarrier& barrier) {
  QCtx q{&env, &prof};
  trace::ScopedSpan worker_span(env.self, "worker");
  for (int pass = 0; pass < 2; ++pass) {
    const QueryPlan& plan = pass == 0 ? cold : warm;
    trace::ScopedSpan pass_span(env.self, pass == 0 ? "cold" : "warm");
    for (size_t pi = 0; pi < plan.phases.size(); ++pi) {
      const Phase& phase = plan.phases[pi];
      std::string phase_name = "phase" + std::to_string(pi);
      trace::ScopedSpan phase_span(env.self, phase_name.c_str());
      if (phase.rows == 0) {
        if (env.worker_index == 0) phase.body(q, 0, 0);
      } else {
        auto [lo, hi] = workloads::WorkerSlice(phase.rows, env.num_workers,
                                               env.worker_index);
        for (uint64_t m = lo; m < hi; m += kMorselRows) {
          phase.body(q, m, std::min(m + kMorselRows, hi));
          co_await env.Checkpoint();
        }
      }
      co_await env.Checkpoint();
      co_await barrier.Arrive();
    }
    if (pass == 0) {
      if (env.worker_index == 0) *warm_start = env.self->clock;
      co_await barrier.Arrive();
    }
  }
}

}  // namespace

TpchResult RunTpch(const TpchOptions& options) {
  const SystemProfile& prof = ProfileByName(options.profile);
  topology::Machine machine = topology::MachineByName(options.machine);
  int workers = prof.WorkersFor(options.query, machine.num_hw_threads());

  RunConfig cfg;
  cfg.machine = options.machine;
  cfg.threads = workers;
  cfg.policy = mem::MemPolicy::kFirstTouch;  // the paper's W5 placement
  cfg.seed = options.seed;
  cfg.run_index = options.run_index;
  if (options.tuned) {
    cfg.affinity = osmodel::Affinity::kSparse;
    cfg.autonuma = false;
    cfg.thp = prof.thp_stays_on;
    cfg.allocator = "tbbmalloc";
  } else {
    cfg.affinity = osmodel::Affinity::kNone;
    cfg.autonuma = true;
    cfg.thp = true;
    cfg.allocator = "ptmalloc";
  }
  if (!options.allocator_override.empty()) {
    cfg.allocator = options.allocator_override;
  }

  SimContext ctx(cfg);
  const HostDb& host = GenerateTpch(options.scale, options.seed);
  Database db = LoadTpch(host, &ctx);

  QueryState cold_state, warm_state;
  cold_state.Prepare(&db, workers);
  warm_state.Prepare(&db, workers);
  QueryPlan cold_plan = BuildTpchPlan(options.query, &cold_state);
  QueryPlan warm_plan = BuildTpchPlan(options.query, &warm_state);
  uint64_t warm_start = 0;

  ctx.SpawnWorkers([&](Env& env) {
    return QueryWorker(env, cold_plan, warm_plan, &warm_start, prof,
                       *ctx.barrier());
  });

  workloads::RunResult r;
  ctx.Finish(&r);
  trace::CollectRun("W5-q" + std::to_string(options.query) + "-" +
                        options.profile +
                        (options.tuned ? "-tuned" : "-default"),
                    cfg, r);

  TpchResult out;
  out.status = r.status;
  out.cycles = r.cycles > warm_start ? r.cycles - warm_start : r.cycles;
  out.out = warm_state.out;
  out.workers = workers;
  return out;
}

}  // namespace minidb
}  // namespace numalab
