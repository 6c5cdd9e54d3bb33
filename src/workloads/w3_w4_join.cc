// W3 — non-partitioning hash join (Blanas et al. [15]) — and W4 — index
// nested-loop join (Fig. 7).
//
// Both join the same two relations. W3 builds a shared hash table on the
// small relation (all workers insert their partition), then probes it with
// the large relation, materializing matches into per-thread output
// buffers. The 1:16 size ratio mimics a decision-support fact/dimension
// join. Allocation-heavy on both sides (one entry per build tuple, growing
// output buffers), which is why it shows the paper's largest allocator
// speedups (Fig. 6g-i).
//
// W4 instead indexes the build relation with a pre-built in-memory index:
// a single builder thread constructs it (Fig. 7e's build time), then all
// other workers probe it for their partition of the large relation and
// materialize matches. The join phase performs few allocations (only
// output growth), so — as the paper observes — placement and lookup
// locality dominate and allocator gains are smaller than W3's.

#include "src/datagen/datagen.h"
#include "src/index/hash_table.h"
#include "src/index/index.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"
#include "src/workloads/sim_context.h"
#include "src/workloads/workloads.h"

namespace numalab {
namespace workloads {
namespace {

// First capacity (in uint64s) of a prober's match buffer.
constexpr uint64_t kOutFirstCap = 1024;

struct JoinShared {
  const datagen::JoinTuple* build = nullptr;
  const datagen::JoinTuple* probe = nullptr;
  uint64_t build_n = 0;
  uint64_t probe_n = 0;
  sim::SimBarrier* built = nullptr;  // the hash table or index is built
  std::vector<uint64_t> matches;     // per worker
};

/// Generates the run's two relations and stages them in simulated memory
/// (build first), with one match counter per worker of `ctx`.
JoinShared StageJoin(SimContext& ctx) {
  const RunConfig& config = ctx.config();
  std::vector<datagen::JoinTuple> host_build, host_probe;
  datagen::MakeJoinInput(config.build_rows, config.probe_rows, config.seed,
                         &host_build, &host_probe);
  JoinShared shared;
  shared.build = ctx.CopyInput(host_build);
  shared.probe = ctx.CopyInput(host_probe);
  shared.build_n = host_build.size();
  shared.probe_n = host_probe.size();
  shared.built = ctx.barrier();
  shared.matches.assign(static_cast<size_t>(config.threads), 0);
  return shared;
}

using JoinTable = index::ConcurrentHashTable<uint64_t>;

sim::Task W3Worker(Env& env, JoinShared& shared, JoinTable& table) {
  trace::ScopedSpan worker_span(env.self, "worker");
  // Build phase over the small relation.
  {
    trace::ScopedSpan build_span(env.self, "build");
    auto [lo, hi] =
        WorkerSlice(shared.build_n, env.num_workers, env.worker_index);
    for (uint64_t i = lo; i < hi && !env.Failed(); ++i) {
      env.Read(&shared.build[i], sizeof(datagen::JoinTuple));
      table.UpsertWith(env, shared.build[i].key, [&](JoinTable::Entry* e) {
        e->value = shared.build[i].payload;
        env.Write(&e->value, sizeof(uint64_t));
      });
      co_await env.Checkpoint();
    }
    co_await shared.built->Arrive();
  }

  // Probe phase over the large relation.
  trace::ScopedSpan probe_span(env.self, "probe");
  auto [lo, hi] =
      WorkerSlice(shared.probe_n, env.num_workers, env.worker_index);
  SimVec<uint64_t> out;
  uint64_t found = 0;
  for (uint64_t i = lo; i < hi && !env.Failed(); ++i) {
    env.Read(&shared.probe[i], sizeof(datagen::JoinTuple));
    if (auto* e = table.Find(env, shared.probe[i].key)) {
      uint64_t row[3] = {shared.probe[i].key, e->value,
                         shared.probe[i].payload};
      if (!out.Append(env, row, 3, kOutFirstCap)) break;
      ++found;
    }
    co_await env.Checkpoint();
  }
  shared.matches[static_cast<size_t>(env.worker_index)] = found;
}

sim::Task W4Builder(Env& env, JoinShared& shared, index::OrderedIndex& index,
                    uint64_t& build_cycles) {
  trace::ScopedSpan worker_span(env.self, "worker");
  {
    trace::ScopedSpan build_span(env.self, "build");
    for (uint64_t i = 0; i < shared.build_n; ++i) {
      env.Read(&shared.build[i], sizeof(datagen::JoinTuple));
      index.Insert(env, shared.build[i].key, shared.build[i].payload);
      co_await env.Checkpoint();
    }
  }
  build_cycles = env.self->clock;
  co_await shared.built->Arrive();
}

sim::Task W4Prober(Env& env, JoinShared& shared, index::OrderedIndex& index) {
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
    if (index.Lookup(env, shared.probe[i].key, &payload)) {
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

RunResult RunW3HashJoin(const RunConfig& config) {
  SimContext ctx(config);
  JoinShared shared = StageJoin(ctx);
  Env setup = ctx.MakeEnv();
  JoinTable table(setup, config.build_rows * 2);

  ctx.SpawnWorkers(
      [&](Env& env) { return W3Worker(env, shared, table); });

  RunResult result;
  ctx.Finish(&result);
  for (uint64_t m : shared.matches) result.checksum += m;
  trace::CollectRun("W3", config, result);
  return result;
}

RunResult RunW4IndexJoin(const RunConfig& config,
                         const std::string& index_name) {
  // Spawn threads+1 workers: one builder plus `threads` probers, so the
  // probe parallelism matches the paper's thread count.
  RunConfig cfg = config;
  cfg.threads = config.threads + 1;
  SimContext ctx(cfg);
  JoinShared shared = StageJoin(ctx);  // barrier sized to threads+1
  auto idx = index::MakeIndex(index_name, config.seed);

  uint64_t build_cycles = 0;
  ctx.SpawnWorkers([&](Env& env) {
    if (env.worker_index == 0) {
      return W4Builder(env, shared, *idx, build_cycles);
    }
    return W4Prober(env, shared, *idx);
  });

  RunResult result;
  ctx.Finish(&result);
  result.aux_cycles = build_cycles;                 // build time
  result.cycles = result.cycles > build_cycles
                      ? result.cycles - build_cycles
                      : 0;                          // join time
  for (uint64_t m : shared.matches) result.checksum += m;
  trace::CollectRun("W4-" + index_name, config, result);
  return result;
}

}  // namespace workloads
}  // namespace numalab
