// Adaptive-placement bench (DESIGN.md section 12): a skewed-read serving
// mix where a small hot key range, homed on one node but read from every
// node, separates the placement strategies:
//
//   first-touch   hot pages stay on their home node; 3/4 of hot reads are
//                 remote and the home controller takes all the hot traffic
//   interleave    hot pages round-robin over the nodes; traffic balances
//                 but reads are still mostly remote
//   preferred(0)  the whole store lands on node 0 — the worst case
//   autonuma      stock NUMA balancing migrates the hot pages toward whoever
//                 faulted last; a page shared by every node has no good
//                 single home, so it bounces (and each bounce stalls readers)
//   placement     hot-page replication gives every node a local copy and the
//                 cost-aware gate stops the bouncing
//
// Caches are ablated (costs.model_caches = false, the DESIGN.md section 7
// switch bench_ablations uses) so every access exercises DRAM placement —
// the subsystem under test — rather than cache capacity.
//
// The bench FAILS (exit 1) unless the placement cell beats every other cell
// on BOTH p99 sojourn and LAR, and replication actually happened. Stdout is
// deterministic (golden-diffed by check.sh); --json-out attaches the
// per-run "serving" sections plus the v3 replication counters.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/serve/serve.h"

namespace {

using numalab::serve::RunServing;
using numalab::serve::ServeConfig;
using numalab::serve::ServeResult;
using numalab::workloads::RunConfig;

struct Cell {
  const char* name;
  RunConfig cfg;
};

}  // namespace

int main(int argc, char** argv) {
  uint64_t requests = numalab::bench::FlagU64(argc, argv, "requests", 16000);
  uint64_t gap = numalab::bench::FlagU64(argc, argv, "rate-gap", 2'000);
  numalab::bench::BenchMain(argc, argv);

  // Machine C: 4 nodes, 2.1x remote latency — the strongest NUMA penalty
  // of the three machines, i.e. the machine where placement matters most.
  RunConfig base = numalab::bench::TunedBase("C", 16);
  base.costs.model_caches = false;

  ServeConfig sc;
  sc.arrival = numalab::serve::Arrival::kPoisson;
  sc.requests = requests;
  sc.mean_gap_cycles = gap;
  // Read-heavy mix: points and ranges carry the hot skew; a thin
  // probe/upsert tail keeps the shared hash table (and its locks) warm.
  sc.mix_point = 0.55;
  sc.mix_range = 0.40;
  sc.mix_probe = 0.03;
  sc.mix_upsert = 0.02;
  sc.mix_tpch = 0.0;
  sc.kv_keys = 1 << 19;  // 8 MiB store, 2 MiB per node
  // 90% of point/range requests hit an 8K-key (32-page) range inside node
  // 0's partition, and every node serves it (hash-spread routing): the
  // read-hot shared working set replication is built for.
  sc.hot_fraction = 0.9;
  sc.hot_keys = 8192;
  sc.spread_reads = true;
  // 1024 records = 256 cache lines per range: on machine C a remote hot
  // range costs ~256 * 73.5 cycles of DRAM vs ~256 * 35 local, so the tail
  // (a queued burst of hot ranges) is dominated by placement, not noise.
  sc.range_rows = 1024;
  // Deep queues: admission control is not under test here, and every cell
  // must complete the identical request set for the cross-cell checksum
  // (the autonuma cell goes service-bound and would otherwise shed load).
  sc.queue_cap = requests;

  std::vector<Cell> cells;
  {
    Cell c{"first-touch", base};
    cells.push_back(c);
  }
  {
    Cell c{"interleave", base};
    c.cfg.policy = numalab::mem::MemPolicy::kInterleave;
    cells.push_back(c);
  }
  {
    Cell c{"preferred0", base};
    c.cfg.policy = numalab::mem::MemPolicy::kPreferred;
    c.cfg.preferred_node = 0;
    cells.push_back(c);
  }
  {
    Cell c{"autonuma", base};
    c.cfg.autonuma = true;
    cells.push_back(c);
  }
  {
    Cell c{"placement", base};
    c.cfg.placement.enabled = true;
    c.cfg.placement.min_heat = 16;
    // Uniform hash-spread routing means cold store pages are shared about
    // equally by all nodes; demand a sustained 4x-cost imbalance before
    // moving one (each move stalls readers behind migrating_until).
    c.cfg.placement.migrate_hysteresis = 4;
    cells.push_back(c);
  }

  std::printf(
      "placement: skewed-read serving mix (%llu requests, gap %llu, "
      "hot %llu/%llu keys)\n",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(gap),
      static_cast<unsigned long long>(sc.hot_keys),
      static_cast<unsigned long long>(sc.kv_keys));
  std::printf("%-12s %10s %8s %8s %8s %6s %9s %9s %7s\n", "cell",
              "q/Mcycle", "p50", "p99", "lar", "migr", "replicas",
              "inval", "vetoed");

  int failures = 0;
  std::vector<ServeResult> results;
  for (const Cell& cell : cells) {
    ServeResult r = RunServing(cell.cfg, sc);
    if (!r.run.status.ok()) {
      std::printf("%-12s %s\n", cell.name, r.run.status.ToString().c_str());
      ++failures;
    } else {
      const numalab::perf::SystemCounters& sys = r.run.report.system;
      std::printf(
          "%-12s %10.2f %8llu %8llu %8.3f %6llu %9llu %9llu %7llu\n",
          cell.name, r.stats.PerMcycle(),
          static_cast<unsigned long long>(r.stats.p50),
          static_cast<unsigned long long>(r.stats.p99),
          r.run.report.LocalAccessRatio(),
          static_cast<unsigned long long>(sys.page_migrations),
          static_cast<unsigned long long>(sys.pages_replicated),
          static_cast<unsigned long long>(sys.replica_invalidations),
          static_cast<unsigned long long>(sys.migrations_vetoed));
    }
    results.push_back(std::move(r));
  }

  // Self-check: the adaptive cell must beat every static policy AND stock
  // AutoNUMA on both tail latency and locality, and must have done it by
  // actually replicating (not by accident of the mix).
  if (failures == 0) {
    const ServeResult& pl = results.back();
    bool ok = pl.run.report.system.pages_replicated > 0;
    for (size_t i = 0; i + 1 < results.size(); ++i) {
      const ServeResult& other = results[i];
      if (!(pl.stats.p99 < other.stats.p99 &&
            pl.run.report.LocalAccessRatio() >
                other.run.report.LocalAccessRatio())) {
        std::printf("placement does not dominate %s (p99 %llu vs %llu, "
                    "lar %.3f vs %.3f)\n",
                    cells[i].name,
                    static_cast<unsigned long long>(pl.stats.p99),
                    static_cast<unsigned long long>(other.stats.p99),
                    pl.run.report.LocalAccessRatio(),
                    other.run.report.LocalAccessRatio());
        ok = false;
      }
    }
    // Every cell serves the identical request stream.
    for (const ServeResult& r : results) {
      if (r.stats.checksum != results[0].stats.checksum) {
        std::printf("checksum mismatch across cells\n");
        ok = false;
      }
    }
    std::printf("placement dominates: %s\n", ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  }

  std::printf("\nbench_placement: %s\n", failures == 0 ? "OK" : "FAIL");
  return failures == 0 ? 0 : 1;
}
