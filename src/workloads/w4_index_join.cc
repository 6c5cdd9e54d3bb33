// W4 — index nested-loop join (Fig. 7).
//
// Same dataset as W3, but the build relation is indexed by a pre-built
// in-memory index: a single builder thread constructs it (Fig. 7e's build
// time), then all workers probe it for their partition of the large
// relation and materialize matches. The join phase performs few
// allocations (only output growth), so — as the paper observes — placement
// and lookup locality dominate and allocator gains are smaller than W3's.

#include "src/datagen/datagen.h"
#include "src/index/index.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"
#include "src/workloads/sim_context.h"
#include "src/workloads/workloads.h"

namespace numalab {
namespace workloads {
namespace {

struct W4Shared {
  const datagen::JoinTuple* build = nullptr;
  const datagen::JoinTuple* probe = nullptr;
  uint64_t build_n = 0;
  uint64_t probe_n = 0;
  SimContext* ctx = nullptr;
  index::OrderedIndex* index = nullptr;
  sim::SimBarrier* built = nullptr;  // builder + all probers
  uint64_t build_cycles = 0;
  std::vector<uint64_t> matches;
};

// First capacity (in uint64s) of a prober's match buffer.
constexpr uint64_t kOutFirstCap = 1024;

sim::Task W4Builder(Env& env, W4Shared& shared) {
  trace::ScopedSpan worker_span(env.self, "worker");
  {
    trace::ScopedSpan build_span(env.self, "build");
    for (uint64_t i = 0; i < shared.build_n; ++i) {
      env.Read(&shared.build[i], sizeof(datagen::JoinTuple));
      shared.index->Insert(env, shared.build[i].key,
                           shared.build[i].payload);
      co_await env.Checkpoint();
    }
  }
  shared.build_cycles = env.self->clock;
  co_await shared.built->Arrive();
}

sim::Task W4Prober(Env& env, W4Shared& shared) {
  trace::ScopedSpan worker_span(env.self, "worker");
  co_await shared.built->Arrive();  // wait for the index

  trace::ScopedSpan probe_span(env.self, "probe");
  // worker_index 0 is the builder; probers are 1..num_workers-1.
  auto [lo, hi] = WorkerSlice(shared.probe_n, env.num_workers - 1,
                              env.worker_index - 1);

  SimVec<uint64_t> out;
  uint64_t found = 0;
  for (uint64_t i = lo; i < hi && !env.Failed(); ++i) {
    env.Read(&shared.probe[i], sizeof(datagen::JoinTuple));
    uint64_t payload = 0;
    if (shared.index->Lookup(env, shared.probe[i].key, &payload)) {
      uint64_t row[3] = {shared.probe[i].key, payload,
                         shared.probe[i].payload};
      if (!out.Append(env, row, 3, kOutFirstCap)) break;
      ++found;
    }
    co_await env.Checkpoint();
  }
  shared.matches[static_cast<size_t>(env.worker_index)] = found;
}

}  // namespace

RunResult RunW4IndexJoin(const RunConfig& config,
                         const std::string& index_name) {
  // Spawn threads+1 workers: one builder plus `threads` probers, so the
  // probe parallelism matches the paper's thread count.
  RunConfig cfg = config;
  cfg.threads = config.threads + 1;
  SimContext ctx(cfg);

  std::vector<datagen::JoinTuple> host_build, host_probe;
  datagen::MakeJoinInput(config.build_rows, config.probe_rows, config.seed,
                         &host_build, &host_probe);

  const datagen::JoinTuple* build = ctx.CopyInput(host_build);
  const datagen::JoinTuple* probe = ctx.CopyInput(host_probe);

  auto idx = index::MakeIndex(index_name, config.seed);

  W4Shared shared;
  shared.build = build;
  shared.probe = probe;
  shared.build_n = host_build.size();
  shared.probe_n = host_probe.size();
  shared.ctx = &ctx;
  shared.index = idx.get();
  shared.built = ctx.barrier();  // sized to threads+1 by SimContext
  shared.matches.assign(static_cast<size_t>(cfg.threads), 0);

  ctx.SpawnWorkers([&](Env& env) {
    if (env.worker_index == 0) return W4Builder(env, shared);
    return W4Prober(env, shared);
  });

  RunResult result;
  ctx.Finish(&result);
  result.aux_cycles = shared.build_cycles;                // build time
  result.cycles = result.cycles > shared.build_cycles
                      ? result.cycles - shared.build_cycles
                      : 0;                                // join time
  for (uint64_t m : shared.matches) result.checksum += m;
  trace::CollectRun("W4-" + index_name, config, result);
  return result;
}

}  // namespace workloads
}  // namespace numalab
