// Figure 3 — OS thread scheduler vs thread affinity: 10 consecutive runs of
// W1 on Machine A, 16 threads. The default (no affinity) configuration is
// reported relative to the Sparse-affinitized run.
//
// Paper shape: unpinned runs fluctuate wildly (every run slower; worst
// cases orders of magnitude, best case still ~27% slower); pinned runs are
// stable.

#include "bench/bench_common.h"
#include "src/workloads/workloads.h"

using numalab::bench::TunedBase;
using namespace numalab::workloads;

int main(int argc, char** argv) {
  constexpr uint64_t kRecords = 1'000'000;
  constexpr uint64_t kCard = 100'000;
  numalab::bench::BenchMain(argc, argv);

  // Both configurations run in the out-of-the-box OS environment (AutoNUMA
  // and THP enabled, ptmalloc, First Touch); only thread affinity differs —
  // that is the comparison Fig. 3 makes.
  RunConfig pinned = numalab::bench::DefaultBase("A", 16);
  pinned.affinity = numalab::osmodel::Affinity::kSparse;
  pinned.num_records = kRecords;
  pinned.cardinality = kCard;
  RunResult base = RunW1HolisticAggregation(pinned);

  std::printf("Figure 3: W1, Machine A, 16 threads — relative runtime of the"
              " default OS scheduler vs Sparse affinity\n");
  std::printf("affinitized (Sparse) baseline: %.3f Gcycles\n",
              numalab::bench::GCycles(base.cycles));
  std::printf("%-6s %-22s %-22s %-12s\n", "run", "no-affinity (Gcycles)",
              "relative to pinned", "migrations");
  for (int run = 1; run <= 10; ++run) {
    RunConfig free_cfg = pinned;
    free_cfg.affinity = numalab::osmodel::Affinity::kNone;
    free_cfg.run_index = run;
    RunResult r = RunW1HolisticAggregation(free_cfg);
    std::printf("%-6d %-22.3f %-22.2f %llu\n", run,
                numalab::bench::GCycles(r.cycles),
                static_cast<double>(r.cycles) /
                    static_cast<double>(base.cycles),
                static_cast<unsigned long long>(
                    r.report.threads.thread_migrations));
    std::fflush(stdout);
  }
  return 0;
}
