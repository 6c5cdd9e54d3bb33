#include "src/workloads/alloc_microbench.h"

#include <vector>

#include "src/common/rng.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"
#include "src/workloads/sim_context.h"

namespace numalab {
namespace workloads {
namespace {

// Allocation sizes: probability inversely proportional to the size class
// (smaller classes much more frequent), sizes 16 B .. 8 KiB.
uint64_t DrawSize(Rng* rng) {
  // P(class c) ~ 1/(c+1) over 32 classes; rejection-free via cumulative
  // harmonic weights would cost a table; a simple trick: draw c until
  // accepted with probability 1/(c+1).
  for (;;) {
    uint64_t c = rng->Uniform(32);
    if (rng->Uniform(c + 1) == 0) {
      return 16ULL << (c / 4) | (c % 4) * (4ULL << (c / 4));
    }
  }
}

struct MicroShared {
  uint64_t ops = 0;
  uint64_t seed = 0;
};

sim::Task MicroWorker(Env& env, MicroShared& shared) {
  trace::ScopedSpan worker_span(env.self, "worker");
  Rng rng(shared.seed + 0x1234 +
          static_cast<uint64_t>(env.worker_index) * 77);
  // Bounded pool of live blocks per thread.
  constexpr size_t kLiveCap = 16384;
  std::vector<std::pair<void*, uint64_t>> live;
  live.reserve(kLiveCap);

  {
    trace::ScopedSpan mix_span(env.self, "alloc-mix");
    for (uint64_t op = 0; op < shared.ops; ++op) {
      // Alloc-biased until the working set is built, then oscillate around
      // it — the paper's "allocate and write, or read and deallocate" mix
      // holds a substantial live heap per thread.
      double p_alloc = live.size() < kLiveCap * 9 / 10 ? 0.75 : 0.45;
      bool do_alloc =
          live.empty() || (live.size() < kLiveCap && rng.Bernoulli(p_alloc));
      if (do_alloc) {
        uint64_t sz = DrawSize(&rng);
        void* p = env.Alloc(sz);
        // Touch the block (first touch; the paper's microbenchmark is
        // allocator-bound, so one line of payload traffic per op).
        env.Write(p, std::min<uint64_t>(sz, 64));
        live.emplace_back(p, sz);
      } else {
        size_t i = rng.Uniform(live.size());
        env.Read(live[i].first, std::min<uint64_t>(live[i].second, 64));
        env.Free(live[i].first);
        live[i] = live.back();
        live.pop_back();
      }
      co_await env.Checkpoint();
    }
  }
  trace::ScopedSpan drain_span(env.self, "teardown");
  for (auto& [p, sz] : live) {
    env.Free(p);
    co_await env.Checkpoint();
  }
}

}  // namespace

RunResult RunAllocMicrobench(const std::string& allocator,
                             const std::string& machine, int threads,
                             uint64_t ops_per_thread, uint64_t seed) {
  RunConfig cfg;
  cfg.machine = machine;
  cfg.threads = threads;
  cfg.affinity = osmodel::Affinity::kSparse;  // isolate the allocator
  cfg.policy = mem::MemPolicy::kFirstTouch;
  cfg.allocator = allocator;
  cfg.autonuma = false;
  cfg.thp = false;
  cfg.seed = seed;
  SimContext ctx(cfg);

  MicroShared shared;
  shared.ops = ops_per_thread;
  shared.seed = seed;

  ctx.SpawnWorkers([&](Env& env) { return MicroWorker(env, shared); });

  RunResult r;
  ctx.Finish(&r);
  trace::CollectRun("alloc-micro-" + allocator, cfg, r);
  return r;
}

}  // namespace workloads
}  // namespace numalab
