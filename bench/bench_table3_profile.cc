// Table III — profiling thread placement: W1 on Machine A, default (OS-
// managed) vs modified (Sparse affinity), hardware-counter comparison.
//
// Paper: migrations -99.95%, cache misses -33%, local accesses +2%, remote
// accesses -32%, local access ratio +10.8%.

#include "bench/bench_common.h"
#include "src/workloads/workloads.h"

using numalab::bench::TunedBase;
using namespace numalab::workloads;

namespace {

void Row(const char* metric, double def, double mod, bool ratio = false) {
  double change = def != 0.0 ? (mod - def) / def * 100.0 : 0.0;
  if (ratio) {
    std::printf("%-26s %14.3f %14.3f %+13.2f%%\n", metric, def, mod, change);
  } else {
    std::printf("%-26s %14.0f %14.0f %+13.2f%%\n", metric, def, mod, change);
  }
}

}  // namespace

int main(int argc, char** argv) {
  constexpr uint64_t kRecords = 1'000'000;
  constexpr uint64_t kCard = 100'000;
  numalab::bench::BenchMain(argc, argv);

  RunConfig mod_cfg = TunedBase("A", 16);
  mod_cfg.num_records = kRecords;
  mod_cfg.cardinality = kCard;

  RunConfig def_cfg = mod_cfg;
  def_cfg.affinity = numalab::osmodel::Affinity::kNone;
  def_cfg.run_index = 3;

  RunResult def = RunW1HolisticAggregation(def_cfg);
  RunResult mod = RunW1HolisticAggregation(mod_cfg);

  const auto& d = def.report.threads;
  const auto& m = mod.report.threads;
  std::printf("Table III: W1 on Machine A — Default (OS-managed) vs "
              "Modified (Sparse)\n");
  std::printf("%-26s %14s %14s %14s\n", "metric", "default", "modified",
              "change");
  Row("Thread Migrations", static_cast<double>(d.thread_migrations),
      static_cast<double>(m.thread_migrations));
  Row("Cache Misses", static_cast<double>(d.llc_misses),
      static_cast<double>(m.llc_misses));
  Row("Local Memory Accesses", static_cast<double>(d.local_dram),
      static_cast<double>(m.local_dram));
  Row("Remote Memory Accesses", static_cast<double>(d.remote_dram),
      static_cast<double>(m.remote_dram));
  Row("Local Access Ratio", def.report.LocalAccessRatio(),
      mod.report.LocalAccessRatio(), /*ratio=*/true);
  Row("Runtime (cycles)", static_cast<double>(def.cycles),
      static_cast<double>(mod.cycles));
  return 0;
}
