// numalab::serve — a deterministic NUMA-aware query-serving layer that runs
// *inside* the simulator (DESIGN.md section 11).
//
// The batch workloads (W1-W5) each run one closed-form job to completion;
// this subsystem puts a serving front-end over the same kernels: seeded
// open- and closed-loop clients emit a mixed stream of point lookups, range
// aggregations, hash-table probes/upserts and minidb TPC-H queries; each
// request is routed to the per-NUMA-node queue owning its data partition;
// a bounded-queue admission controller sheds load (with retry-after
// backoff) and reacts to faultlab degradation; and server workers drain
// their home queue with a dynamic batcher that coalesces compatible point
// lookups into MemSystem::AccessSpan batched accesses under a latency
// budget. Per-request sojourn latencies land in mergeable log2 Histograms
// (stats.h) and are exported through numalab::trace as the "serving" JSON
// section.
//
// Everything — arrival times, request payloads, routing, retries — derives
// from the run seed, so two same-seed runs are bit-identical (the property
// scripts/check.sh's export-determinism stage asserts on every bench's
// JSON, serving included).

#ifndef NUMALAB_SERVE_SERVE_H_
#define NUMALAB_SERVE_SERVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/storage/storage.h"
#include "src/workloads/run_config.h"

namespace numalab {
namespace serve {

/// \brief Client arrival processes.
///
/// The open-loop generators (fixed/poisson/burst) submit requests on a
/// pre-drawn schedule regardless of completions — the load a server cannot
/// push back on, which is what makes admission control necessary. The
/// closed-loop generator models `sessions` users who each wait for their
/// previous request (plus think time) before issuing the next, so offered
/// load self-limits like Fig. 3's repeated runs do.
enum class Arrival {
  kFixed,    ///< constant inter-arrival gap
  kPoisson,  ///< exponential gaps (memoryless), same mean as kFixed
  kBurst,    ///< whole bursts arrive back-to-back at the mean rate
  kClosed,   ///< closed loop: per-session issue -> serve -> think cycle
};

const char* ArrivalName(Arrival a);
/// Parses "fixed" / "poisson" / "burst" / "closed"; false on anything else.
bool ArrivalFromName(const std::string& name, Arrival* out);

/// \brief The request mix. Weights are relative (normalized internally).
enum class RequestType {
  kPointGet,  ///< single-record read from the partitioned store (W1-style)
  kRangeAgg,  ///< short range scan + aggregate over one partition (W2-style)
  kProbe,     ///< lock-free ConcurrentHashTable::Find (W3 probe side)
  kUpsert,    ///< ConcurrentHashTable::UpsertSet under the stripe lock
  kTpch,      ///< one minidb TPC-H query, executed serially by one server
};
inline constexpr int kNumRequestTypes = 5;
const char* RequestTypeName(RequestType t);

/// \brief Parameters of one serving run (on top of a workloads::RunConfig,
/// which supplies machine/threads/affinity/policy/allocator/seed).
struct ServeConfig {
  Arrival arrival = Arrival::kPoisson;
  /// Total requests offered (split evenly over sessions in closed loop).
  uint64_t requests = 2000;
  /// Mean inter-arrival gap in cycles for the open-loop processes; the
  /// offered rate is 1/mean_gap_cycles requests per cycle.
  uint64_t mean_gap_cycles = 12'000;
  /// Requests per burst for Arrival::kBurst (the burst period is
  /// burst_size * mean_gap_cycles, preserving the mean rate).
  uint64_t burst_size = 32;

  /// Relative mix weights; all five default-on keeps every kernel hot.
  double mix_point = 0.60;
  double mix_range = 0.16;
  double mix_probe = 0.14;
  double mix_upsert = 0.07;
  double mix_tpch = 0.03;

  /// Partitioned record store: kv_keys records range-partitioned over the
  /// machine's NUMA nodes (node = key / keys_per_node).
  uint64_t kv_keys = 1 << 16;
  /// Point-lookup key locality: probability that a client's next point key
  /// continues its scan cursor (key+1) instead of jumping uniformly — the
  /// MovingCluster-style adjacency the batcher's span coalescing feeds on.
  double point_locality = 0.5;
  /// Hot-set skew: the fraction of point/range requests redrawn from the
  /// keys in [0, hot_keys); hot_keys must not exceed kv_keys (RunServing
  /// CHECK-fails otherwise). 0 disables the skew and draws no RNG, so
  /// existing request streams stay bit-identical. The hot keys all live in
  /// the low partitions, concentrating read traffic on few pages — the
  /// access pattern adaptive placement's replication targets
  /// (bench_placement).
  double hot_fraction = 0.0;
  uint64_t hot_keys = 0;
  /// Route point/range requests by key hash instead of by data ownership:
  /// every node then serves — and remotely reads — the shared store, the
  /// way a stateless serving tier in front of one dataset does. Routing is
  /// then identical across MemPolicy cells, isolating data placement as
  /// the only difference.
  bool spread_reads = false;
  /// Rows per range-aggregation request.
  uint64_t range_rows = 256;
  /// Build side of the shared probe table (built during warmup).
  uint64_t probe_build_rows = 8192;
  /// minidb dataset scale for RequestType::kTpch (the query is TPC-H Q6).
  double tpch_scale = 0.01;

  /// Closed-loop population and think time.
  int sessions = 16;
  uint64_t think_cycles = 20'000;

  /// Admission control: per-node queue bound, retry budget and the base
  /// retry-after backoff (doubled per attempt).
  uint64_t queue_cap = 64;
  int max_retries = 3;
  uint64_t retry_backoff_cycles = 60'000;

  /// Dynamic batcher: max point lookups coalesced per dispatch, and the
  /// extra cycles a non-full batch may wait for more. batch_max = 1 is the
  /// unbatched reference dispatch.
  uint64_t batch_max = 16;
  uint64_t batch_window_cycles = 2'000;

  /// WAL-backed storage engine under the serving layer (DESIGN.md §15).
  /// When storage.enabled, point/range/upsert requests run through the
  /// NUMA-sharded buffer pool + WAL instead of the raw partition slabs /
  /// probe table; storage.rows is overridden to kv_keys. Default-off is
  /// zero-cost: the serving stream, stats and stdout are bit-identical to
  /// a build without the storage engine.
  storage::StorageConfig storage;
};

/// \brief Per-request-type completion stats (exact-sort percentiles over
/// sojourn = completion - first submission, in cycles).
struct TypeStats {
  uint64_t completed = 0;
  uint64_t p50 = 0, p95 = 0, p99 = 0;
};

/// \brief Per-NUMA-node queue/admission stats.
struct NodeStats {
  uint64_t enqueued = 0;
  uint64_t rejected = 0;
  uint64_t redirected_offline = 0;  ///< rerouted off a faultlab-offline node
  uint64_t max_depth = 0;
};

/// \brief Everything the serving layer measured in one run.
struct ServingStats {
  // Admission accounting. Invariants (checked by validate_bench_json.py):
  // admitted + dropped == offered; completed == admitted;
  // rejected == retries + dropped.
  uint64_t offered = 0;    ///< distinct requests submitted
  uint64_t admitted = 0;   ///< eventually enqueued (<= max_retries+1 tries)
  uint64_t completed = 0;  ///< executed to completion
  uint64_t rejected = 0;   ///< enqueue attempts refused (counts attempts)
  uint64_t retries = 0;    ///< refused attempts that scheduled a retry
  uint64_t dropped = 0;    ///< requests abandoned after the retry budget

  uint64_t batches = 0;           ///< dispatches executed
  uint64_t batched_requests = 0;  ///< point lookups served via batches > 1
  uint64_t max_batch = 0;
  uint64_t max_queue_depth = 0;   ///< across all node queues

  uint64_t first_arrival_cycle = 0;
  uint64_t last_completion_cycle = 0;
  /// last_completion - first_arrival: the serving span the throughput
  /// numbers are computed over.
  uint64_t makespan_cycles = 0;

  /// Sojourn percentiles over all completed requests (exact sort).
  uint64_t p50 = 0, p95 = 0, p99 = 0, max = 0;
  TypeStats types[kNumRequestTypes];
  std::vector<NodeStats> nodes;  ///< indexed by NUMA node

  /// All sojourns, merged from the per-worker log2 histograms (stats.h) —
  /// the mergeable-across-threads representation the exact vectors above
  /// cross-check in tests/serve_test.cc.
  Histogram latency;

  /// Order-independent digest of every response (determinism anchor).
  uint64_t checksum = 0;

  double CyclesPerQuery() const {
    return completed == 0 ? 0.0
                          : static_cast<double>(makespan_cycles) /
                                static_cast<double>(completed);
  }
  /// Throughput: completed requests per million cycles of makespan.
  double PerMcycle() const {
    return makespan_cycles == 0 ? 0.0
                                : static_cast<double>(completed) * 1e6 /
                                      static_cast<double>(makespan_cycles);
  }
};

struct ServeResult {
  workloads::RunResult run;
  ServingStats stats;
  /// Filled iff ServeConfig::storage.enabled (zero-initialized otherwise).
  storage::StorageStats storage;
  /// Host-side diagnostic, not a simulated outcome: the most engine events
  /// pending as any open-loop arrival was scheduled. The lazily chained
  /// arrival stream keeps it at a few (one arrival, the OS daemon ticks,
  /// retries in flight) however long the stream is.
  uint64_t peak_pending_events = 0;
};

/// Runs one serving experiment: builds the data plane (partitioned store,
/// shared probe table, minidb database if the mix includes TPC-H), spawns
/// rc.threads server workers, replays the seeded arrival schedule and
/// drains it to empty. Deposits the run with numalab::trace (workload
/// "serve-<arrival>", serving section attached) when collection is on.
ServeResult RunServing(const workloads::RunConfig& rc, const ServeConfig& sc);

/// The "serving" JSON object for trace export / bench_serving --json-out.
/// Deterministic: integers and %.6g doubles only, fixed key order.
std::string ServingJson(const ServeConfig& sc, const ServingStats& st);

}  // namespace serve
}  // namespace numalab

#endif  // NUMALAB_SERVE_SERVE_H_
