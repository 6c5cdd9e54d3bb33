// faultlab robustness grid (DESIGN.md section 9).
//
// Sweeps W1–W4 across all three machines under the canned per-node
// memory-pressure plan: node capacities are capped far below the working
// set, so page binds overflow their hot nodes and spill along the
// Linux-style zonelist. Every cell must still complete with an OK status —
// graceful degradation, not failure — and report nonzero spill counters.
//
// Unlike the figure benches, a failing cell does not abort the sweep: the
// failure is recorded, the cell is retried once with a perturbed run_index
// (re-drawing any injected transient faults), and the sweep continues. The
// binary exits nonzero iff any cell is still failing after its retry.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/faultlab/faultlab.h"
#include "src/workloads/workloads.h"

namespace {

using numalab::workloads::RunConfig;
using numalab::workloads::RunResult;

RunResult RunCell(const std::string& workload, const RunConfig& config) {
  if (workload == "W1") {
    return numalab::workloads::RunW1HolisticAggregation(config);
  }
  if (workload == "W2") {
    return numalab::workloads::RunW2DistributiveAggregation(config);
  }
  if (workload == "W3") {
    return numalab::workloads::RunW3HashJoin(config);
  }
  return numalab::workloads::RunW4IndexJoin(config, "btree");
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t cap_mib = numalab::bench::FlagU64(argc, argv, "node-cap-mib", 16);
  numalab::bench::BenchMain(argc, argv);

  const std::vector<std::string> machines = {"A", "B", "C"};
  const std::vector<std::string> workloads = {"W1", "W2", "W3", "W4"};

  std::printf("faultlab pressure grid (per-node cap %llu MiB)\n",
              static_cast<unsigned long long>(cap_mib));
  std::printf("%-8s %-3s %-18s %12s %12s %12s %7s\n", "workload", "m",
              "status", "Gcycles", "spilled", "last_resort", "retries");

  int failed_cells = 0;
  for (const auto& m : machines) {
    for (const auto& w : workloads) {
      RunConfig config = numalab::bench::DefaultBase(m, 8);
      // Scaled-down inputs: the grid probes robustness, not figure values.
      config.num_records = 1'000'000;
      config.cardinality = 10'000;
      config.build_rows = 62'500;
      config.probe_rows = 1'000'000;
      config.faults = numalab::faultlab::MemoryPressurePlan(cap_mib << 20);
      // Watchdog: a hung cell fails with DeadlineExceeded instead of
      // wedging the whole sweep.
      config.deadline_cycles = 100'000'000'000ULL;

      RunResult r = RunCell(w, config);
      int retries = 0;
      if (!r.status.ok()) {
        // Retry once with a perturbed run_index: transient injected faults
        // (allocation failures, scheduler noise) are re-drawn from a
        // different stream; deterministic failures stay failed.
        ++retries;
        config.run_index += 1000;
        r = RunCell(w, config);
      }
      if (!r.status.ok()) ++failed_cells;
      std::printf("%-8s %-3s %-18s %12.3f %12llu %12llu %7d\n", w.c_str(),
                  m.c_str(), r.status.ok() ? "OK" : r.status.ToString().c_str(),
                  numalab::bench::GCycles(r.cycles),
                  static_cast<unsigned long long>(
                      r.report.system.pages_spilled),
                  static_cast<unsigned long long>(
                      r.report.system.oom_last_resort_pages),
                  retries);
    }
  }

  std::printf("faultlab grid: %d/%d cells ok\n",
              static_cast<int>(machines.size() * workloads.size()) -
                  failed_cells,
              static_cast<int>(machines.size() * workloads.size()));
  return failed_cells == 0 ? 0 : 1;
}
