// W3 — non-partitioning hash join (Blanas et al. [15]).
//
// Build a shared hash table on the small relation (all workers insert their
// partition), then probe it with the large relation, materializing matches
// into per-thread output buffers. The 1:16 size ratio mimics a decision-
// support fact/dimension join. Allocation-heavy on both sides (one entry
// per build tuple, growing output buffers), which is why it shows the
// paper's largest allocator speedups (Fig. 6g-i).

#include "src/datagen/datagen.h"
#include "src/index/hash_table.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"
#include "src/workloads/sim_context.h"
#include "src/workloads/workloads.h"

namespace numalab {
namespace workloads {
namespace {

using JoinTable = index::ConcurrentHashTable<uint64_t>;

// First capacity (in uint64s) of a worker's match buffer.
constexpr uint64_t kOutFirstCap = 1024;

struct JoinShared {
  const datagen::JoinTuple* build = nullptr;
  const datagen::JoinTuple* probe = nullptr;
  uint64_t build_n = 0;
  uint64_t probe_n = 0;
  SimContext* ctx = nullptr;
  std::vector<uint64_t> matches;  // per worker
};

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
    co_await shared.ctx->barrier()->Arrive();
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

}  // namespace

RunResult RunW3HashJoin(const RunConfig& config) {
  SimContext ctx(config);

  std::vector<datagen::JoinTuple> host_build, host_probe;
  datagen::MakeJoinInput(config.build_rows, config.probe_rows, config.seed,
                         &host_build, &host_probe);

  const datagen::JoinTuple* build = ctx.CopyInput(host_build);
  const datagen::JoinTuple* probe = ctx.CopyInput(host_probe);
  Env setup = ctx.MakeEnv();
  JoinTable table(setup, config.build_rows * 2);

  JoinShared shared;
  shared.build = build;
  shared.probe = probe;
  shared.build_n = host_build.size();
  shared.probe_n = host_probe.size();
  shared.ctx = &ctx;
  shared.matches.assign(static_cast<size_t>(config.threads), 0);

  ctx.SpawnWorkers(
      [&](Env& env) { return W3Worker(env, shared, table); });

  RunResult result;
  ctx.Finish(&result);
  for (uint64_t m : shared.matches) result.checksum += m;
  trace::CollectRun("W3", config, result);
  return result;
}

}  // namespace workloads
}  // namespace numalab
