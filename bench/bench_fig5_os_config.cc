// Figure 5 — OS configuration experiments (W1):
//   5a: AutoNUMA on/off x memory placement policy, Machine A (runtime).
//   5b: the same grid's Local Access Ratio.
//   5c: THP on/off x memory allocator, Machine A.
//   5d: {AutoNUMA,THP} enabled vs disabled x placement x Machines A/B/C.
//
// Paper shapes: AutoNUMA slows every policy (the default FT+AutoNUMA is
// ~86% slower than Interleave without it) even though it *raises* LAR; THP
// is detrimental for tcmalloc/jemalloc/tbbmalloc; tuning helps Machine A
// most (~46%), then C (~21%), B least (~7%).

#include <vector>

#include "bench/bench_common.h"
#include "src/workloads/workloads.h"

using numalab::bench::FlagU64;
using numalab::bench::GCycles;
using numalab::bench::kPaperAllocators;
using numalab::bench::kPaperPolicies;
using numalab::bench::NamedPolicy;
using numalab::bench::TunedBase;
using namespace numalab::workloads;

namespace {

// Fig. 5a/5b's policy rows: the paper's three, then Preferred.
std::vector<NamedPolicy> Fig5abPolicies() {
  std::vector<NamedPolicy> p(std::begin(kPaperPolicies),
                             std::end(kPaperPolicies));
  p.push_back({"Preferred", numalab::mem::MemPolicy::kPreferred});
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t records = FlagU64(argc, argv, "records", 2'000'000);
  uint64_t card = FlagU64(argc, argv, "card", 200'000);
  numalab::bench::BenchMain(argc, argv);

  // --- Fig 5a + 5b ---
  std::printf("Figure 5a/5b: W1, Machine A, 16 threads — AutoNUMA x memory"
              " placement policy\n");
  std::printf("%-12s %-14s %-14s %-10s %-10s\n", "policy", "on(Gcyc)",
              "off(Gcyc)", "LAR(on)", "LAR(off)");
  for (const auto& [pname, policy] : Fig5abPolicies()) {
    RunConfig c = TunedBase("A", 16);
    c.num_records = records;
    c.cardinality = card;
    c.policy = policy;
    c.autonuma = true;
    RunResult on = RunW1HolisticAggregation(c);
    c.autonuma = false;
    RunResult off = RunW1HolisticAggregation(c);
    std::printf("%-12s %-14.3f %-14.3f %-10.2f %-10.2f\n", pname,
                GCycles(on.cycles), GCycles(off.cycles),
                on.report.LocalAccessRatio(), off.report.LocalAccessRatio());
    std::fflush(stdout);
  }

  // --- Fig 5c ---
  std::printf("\nFigure 5c: W1, Machine A, 16 threads — THP x allocator "
              "(AutoNUMA off)\n");
  std::printf("%-12s %-14s %-14s %-8s\n", "allocator", "THP off", "THP on",
              "on/off");
  for (const char* alloc : kPaperAllocators) {
    RunConfig c = TunedBase("A", 16);
    c.num_records = records;
    c.cardinality = card;
    c.allocator = alloc;
    c.thp = false;
    RunResult off = RunW1HolisticAggregation(c);
    c.thp = true;
    RunResult on = RunW1HolisticAggregation(c);
    std::printf("%-12s %-14.3f %-14.3f %-8.2f\n", alloc, GCycles(off.cycles),
                GCycles(on.cycles),
                static_cast<double>(on.cycles) /
                    static_cast<double>(off.cycles));
    std::fflush(stdout);
  }

  // --- Fig 5d ---
  std::printf("\nFigure 5d: W1, 16 threads — {AutoNUMA,THP} x placement x "
              "machine (Gcycles)\n");
  std::printf("%-10s %-12s %-10s %-10s %-10s\n", "os-config", "policy", "A",
              "B", "C");
  for (bool enabled : {true, false}) {
    for (const auto& [pname, policy] : kPaperPolicies) {
      std::printf("%-10s %-12s ", enabled ? "enabled" : "disabled", pname);
      for (const char* m : {"A", "B", "C"}) {
        RunConfig c = TunedBase(m, 16);
        c.num_records = records;
        c.cardinality = card;
        c.policy = policy;
        c.autonuma = enabled;
        c.thp = enabled;
        RunResult r = RunW1HolisticAggregation(c);
        std::printf("%-10.3f ", GCycles(r.cycles));
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
  return 0;
}
