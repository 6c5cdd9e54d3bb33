// Figure 4 — Sparse vs Dense thread placement: W1 on Machine A with 2, 4,
// 8, 16 threads across the three dataset distributions.
//
// Paper shape: Sparse wins while threads < hardware threads (more memory
// controllers in play); at full occupancy the two are nearly identical.

#include "bench/bench_common.h"
#include "src/workloads/workloads.h"

using numalab::bench::TunedBase;
using namespace numalab::workloads;

int main(int argc, char** argv) {
  constexpr uint64_t kRecords = 2'000'000;
  constexpr uint64_t kCard = 200'000;
  numalab::bench::BenchMain(argc, argv);

  std::printf("Figure 4: W1, Machine A — Dense vs Sparse affinity "
              "(Gcycles)\n");
  std::printf("%-14s %-8s %-12s %-12s %-10s\n", "dataset", "threads",
              "Dense", "Sparse", "D/S");
  for (Dataset d : {Dataset::kMovingCluster, Dataset::kSequential,
                    Dataset::kZipf}) {
    for (int threads : {2, 4, 8, 16}) {
      RunConfig c = TunedBase("A", threads);
      c.num_records = kRecords;
      c.cardinality = kCard;
      c.dataset = d;
      c.affinity = numalab::osmodel::Affinity::kDense;
      RunResult dense = RunW1HolisticAggregation(c);
      c.affinity = numalab::osmodel::Affinity::kSparse;
      RunResult sparse = RunW1HolisticAggregation(c);
      std::printf("%-14s %-8d %-12.3f %-12.3f %-10.2f\n", DatasetName(d),
                  threads, numalab::bench::GCycles(dense.cycles),
                  numalab::bench::GCycles(sparse.cycles),
                  static_cast<double>(dense.cycles) /
                      static_cast<double>(sparse.cycles));
      std::fflush(stdout);
    }
  }
  return 0;
}
