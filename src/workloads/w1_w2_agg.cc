// W1 (holistic / MEDIAN) and W2 (distributive / COUNT) hash aggregation.
//
// Both build a shared global hash table keyed by the group column. W1
// stores every value per group (the holistic aggregate needs the whole
// input) in allocator-backed growable arrays — the allocation-heavy
// behaviour the paper's Fig. 6a-c exploits. W2 keeps one counter per group
// and is placement-bound rather than allocator-bound (Fig. 6d-f).

#include <algorithm>

#include "src/datagen/datagen.h"
#include "src/index/hash_table.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"
#include "src/workloads/sim_context.h"
#include "src/workloads/workloads.h"

namespace numalab {
namespace workloads {
namespace {

struct AggShared {
  const datagen::Record* input = nullptr;
  uint64_t n = 0;
  sim::SimBarrier* built = nullptr;  // all workers finished the build
  std::vector<uint64_t> checksums;  // per worker
};

/// Per-group value array. It lives inside the hash-table entry, so its
/// 16-byte layout fixes the 32-byte entry, its size class and the simulated
/// address stream.
using GroupVec = SimVec<int64_t, uint32_t>;
static_assert(sizeof(GroupVec) == 16, "W1 entries must stay 32 bytes");
// First capacity of a group's value array.
constexpr uint32_t kGroupFirstCap = 8;

/// One aggregation worker. `update(env, entry, record)` folds a record into
/// its group's entry; `aggregate(env, entry)` returns the group's share of
/// the checksum.
template <typename V, typename Update, typename Aggregate>
sim::Task AggWorker(Env& env, AggShared& shared,
                    index::ConcurrentHashTable<V>& table, Update update,
                    Aggregate aggregate) {
  using Entry = typename index::ConcurrentHashTable<V>::Entry;
  trace::ScopedSpan worker_span(env.self, "worker");
  auto [lo, hi] = WorkerSlice(shared.n, env.num_workers, env.worker_index);

  // Phase 1: build the shared table. The update mutates the shared entry,
  // so it runs inside the stripe's critical section (UpsertWith), not after
  // it. On a reported failure (injected OOM) the worker stops producing but
  // still arrives at the barrier so the run winds down instead of
  // deadlocking.
  {
    trace::ScopedSpan build_span(env.self, "build");
    for (uint64_t i = lo; i < hi && !env.Failed(); ++i) {
      env.Read(&shared.input[i], sizeof(datagen::Record));
      table.UpsertWith(env, shared.input[i].key,
                       [&](Entry* e) { update(env, e, shared.input[i]); });
      co_await env.Checkpoint();
    }
    co_await shared.built->Arrive();
  }

  // Phase 2: aggregate per group; groups partitioned by bucket range.
  trace::ScopedSpan agg_span(env.self, "aggregate");
  auto [blo, bhi] =
      WorkerSlice(table.nbuckets(), env.num_workers, env.worker_index);
  uint64_t checksum = 0;
  if (!env.Failed()) {
    table.ForEachInBuckets(env, blo, bhi,
                           [&](Entry* e) { checksum += aggregate(env, e); });
  }
  // ForEachInBuckets runs synchronously; yield once afterwards.
  co_await env.Checkpoint();
  shared.checksums[static_cast<size_t>(env.worker_index)] = checksum;
}

template <typename V, typename Update, typename Aggregate>
RunResult RunAggregation(const RunConfig& config, const char* name,
                         Update update, Aggregate aggregate) {
  SimContext ctx(config);

  std::vector<datagen::Record> host_input = datagen::MakeAggregationInput(
      config.dataset, config.num_records, config.cardinality, config.seed);

  const datagen::Record* input = ctx.CopyInput(host_input);
  Env setup = ctx.MakeEnv();
  index::ConcurrentHashTable<V> table(setup, config.cardinality * 2);

  AggShared shared;
  shared.input = input;
  shared.n = host_input.size();
  shared.built = ctx.barrier();
  shared.checksums.assign(static_cast<size_t>(config.threads), 0);

  ctx.SpawnWorkers([&](Env& env) {
    return AggWorker(env, shared, table, update, aggregate);
  });

  RunResult result;
  ctx.Finish(&result);
  for (uint64_t c : shared.checksums) result.checksum += c;
  trace::CollectRun(name, config, result);
  return result;
}

}  // namespace

RunResult RunW1HolisticAggregation(const RunConfig& config) {
  using Entry = index::ConcurrentHashTable<GroupVec>::Entry;
  return RunAggregation<GroupVec>(
      config, "W1",
      // Append every value to its group.
      [](Env& env, Entry* e, const datagen::Record& r) {
        e->value.Append(env, &r.val, 1, kGroupFirstCap);
      },
      // MEDIAN of the group.
      [](Env& env, Entry* e) -> uint64_t {
        GroupVec& v = e->value;
        if (v.size == 0) return 0;
        env.ReadSpan(v.data, v.size * sizeof(int64_t));
        // nth_element is O(n) with a non-trivial constant.
        env.Compute(static_cast<uint64_t>(v.size) * 6);
        size_t mid = (v.size - 1) / 2;
        std::nth_element(v.data, v.data + mid, v.data + v.size);
        return static_cast<uint64_t>(v.data[mid]);
      });
}

RunResult RunW2DistributiveAggregation(const RunConfig& config) {
  using Entry = index::ConcurrentHashTable<uint64_t>::Entry;
  return RunAggregation<uint64_t>(
      config, "W2",
      // COUNT the record.
      [](Env& env, Entry* e, const datagen::Record&) {
        ++e->value;
        env.Write(&e->value, sizeof(uint64_t));
      },
      [](Env&, Entry* e) { return e->value; });
}

}  // namespace workloads
}  // namespace numalab
