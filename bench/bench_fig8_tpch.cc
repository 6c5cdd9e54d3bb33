// Figure 8 — TPC-H (W5): query latency reduction of the tuned OS
// configuration vs the out-of-the-box default, for all 22 queries across
// the five system profiles, on Machine A.
//
// Tuned = Sparse affinity, AutoNUMA off, THP off (except the DBMSx-like
// profile, as in the paper), First Touch, tbbmalloc. Default = no
// affinity, AutoNUMA+THP on, ptmalloc.
//
// Paper shapes: every system improves on average; MonetDB-like avg ~14.5%
// (max 43%), PostgreSQL-like avg ~3% with a few regressions, MySQL-like
// avg ~12% (max 49%), DBMSx-like avg ~21%, Quickstep-like avg ~7%.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/minidb/runner.h"

using namespace numalab::minidb;

int main(int argc, char** argv) {
  constexpr double kScale = 0.05;
  numalab::bench::BenchMain(argc, argv);

  std::printf("Figure 8: TPC-H Q1-Q22 latency reduction (tuned vs default)"
              " — Machine A, SF=%.2f\n", kScale);
  std::printf("%-5s", "query");
  for (const auto& p : AllProfiles()) std::printf("%14s", p.models.c_str());
  std::printf("\n");

  std::vector<double> sums(AllProfiles().size(), 0.0);
  for (int q = 1; q <= 22; ++q) {
    std::printf("Q%-4d", q);
    size_t pi = 0;
    for (const auto& p : AllProfiles()) {
      TpchOptions o;
      o.machine = "A";
      o.profile = p.name;
      o.query = q;
      o.scale = kScale;
      o.run_index = q;  // fresh scheduler noise per query, as in real runs
      o.tuned = false;
      TpchResult def = RunTpch(o);
      o.tuned = true;
      TpchResult tuned = RunTpch(o);
      double reduction =
          100.0 * (1.0 - static_cast<double>(tuned.cycles) /
                             static_cast<double>(def.cycles));
      sums[pi++] += reduction;
      std::printf("%13.1f%%", reduction);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("%-5s", "avg");
  for (double s : sums) std::printf("%13.1f%%", s / 22.0);
  std::printf("\n");
  return 0;
}
