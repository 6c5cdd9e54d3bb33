// Figure 7 — index nested-loop join (W4) on Machine A:
//   7a-7d: join time for ART / Masstree / B+tree / Skip List across
//          allocators and placement policies.
//   7e:    build + join time of each index at its best configuration.
//
// Paper shapes: ART improves most with jemalloc/tbbmalloc (it draws from
// many size classes); Masstree and B+tree run best with Hoard; Skip List is
// the one index fastest under ptmalloc; ART and B+tree are the two fastest
// overall.

#include <vector>

#include "bench/bench_common.h"
#include "src/workloads/workloads.h"

using numalab::bench::FlagU64;
using numalab::bench::GCycles;
using numalab::bench::kPaperAllocators;
using numalab::bench::kPaperPolicies;
using numalab::bench::TunedBase;
using namespace numalab::workloads;

int main(int argc, char** argv) {
  uint64_t build = FlagU64(argc, argv, "build", 100'000);
  uint64_t probe = FlagU64(argc, argv, "probe", 1'600'000);
  numalab::bench::BenchMain(argc, argv);

  struct Best {
    double join = 1e300;
    double build = 0;
    const char* alloc = "";
    const char* policy = "";
  };

  std::vector<std::pair<const char*, Best>> summary;
  for (const char* index : {"art", "masstree", "btree", "skiplist"}) {
    std::printf("Figure 7 (%s): W4 join time — Machine A (Gcycles)\n",
                index);
    std::printf("%-12s", "allocator");
    for (const auto& [pname, p] : kPaperPolicies) std::printf("%14s", pname);
    std::printf("\n");
    Best best;
    for (const char* alloc : kPaperAllocators) {
      std::printf("%-12s", alloc);
      for (const auto& [pname, policy] : kPaperPolicies) {
        RunConfig c = TunedBase("A", 16);
        c.build_rows = build;
        c.probe_rows = probe;
        c.allocator = alloc;
        c.policy = policy;
        RunResult r = RunW4IndexJoin(c, index);
        double join_g = GCycles(r.cycles);
        if (join_g < best.join) {
          best = Best{join_g, GCycles(r.aux_cycles), alloc, pname};
        }
        std::printf("%14.3f", join_g);
        std::fflush(stdout);
      }
      std::printf("\n");
    }
    std::printf("\n");
    summary.emplace_back(index, best);
  }

  std::printf("Figure 7e: build and join time at each index's best "
              "configuration\n");
  std::printf("%-10s %12s %12s %12s %12s\n", "index", "build(Gcyc)",
              "join(Gcyc)", "allocator", "policy");
  for (const auto& [index, b] : summary) {
    std::printf("%-10s %12.3f %12.3f %12s %12s\n", index, b.build, b.join,
                b.alloc, b.policy);
  }
  return 0;
}
