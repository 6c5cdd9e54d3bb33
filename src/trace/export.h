// Structured export of simulated runs (DESIGN.md section 10).
//
// Two halves:
//
//  1. A process-global *run collector*. The bench flags --json-out= and
//     --trace-out= (bench_common.h) enable it before any run starts; every
//     workload entry point then deposits its (config, result) pair here via
//     CollectRun, and the bench writes one schema-versioned JSON document —
//     and optionally a chrome://tracing event file — at exit. When the
//     collector is disabled, CollectRun is one predicate call and workload
//     results are untouched, so plain bench runs keep their byte-identical
//     golden stdout.
//
//  2. Pure string emitters for those documents. Everything serialized is
//     derived from the deterministic simulation (no wall time, no pointers,
//     no hash iteration order), so two same-seed runs produce byte-identical
//     bytes — scripts/check.sh asserts exactly that.

#ifndef NUMALAB_TRACE_EXPORT_H_
#define NUMALAB_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "src/workloads/run_config.h"

namespace numalab {
namespace trace {

/// Version of the JSON document layout below. Bump on any key change and
/// update scripts/validate_bench_json.py in the same commit.
/// v2: optional per-run "serving" section (numalab::serve SLO metrics).
/// v3: adaptive-placement counters in "system" (pages_replicated,
///     replica_reads/writes/invalidations/drops, replica_bytes_peak,
///     migrations_vetoed, capacity_bytes_total), "all_offline_binds" in
///     "degradation", and the "placement" flag in "config".
/// v4: optional per-run "storage" section (numalab::storage buffer-pool /
///     WAL / recovery counters) and the "storage" flag in "config"; the
///     section must be present exactly when the flag is true.
inline constexpr int kJsonSchemaVersion = 4;

/// \brief A named per-run JSON section, emitted after the run's fixed keys
/// as `"<key>":<json>`. `json` is a pre-serialized JSON value (normally an
/// object) produced by the owning subsystem, e.g. serve::ServingJson or
/// storage::StorageJson; it must obey the same determinism contract as the
/// rest of the document. Each key needs a checker in the SECTIONS registry
/// of scripts/validate_bench_json.py.
struct Section {
  std::string key;
  std::string json;
};

/// \brief One workload run as deposited by CollectRun.
struct CollectedRun {
  std::string workload;  ///< "W1", "W3", "W4-art", "W5-q1-columnar-vec", ...
  workloads::RunConfig config;
  workloads::RunResult result;
  /// Optional sections, emitted in list order. A "storage" section also
  /// sets the exported config.storage flag (schema v4).
  std::vector<Section> sections;
};

/// Process-wide collection switch. When on, every SimContext attaches a
/// TraceRecorder (so results carry spans) and workload entry points record
/// their runs. Flipped once at startup by ParseTraceFlags; tests may toggle
/// it but must Clear afterwards.
bool CollectEnabled();
void SetCollectEnabled(bool on);

/// Appends a run, with its optional sections, to the process-global list
/// iff collection is enabled. Callers that pay to serialize a section should
/// check CollectEnabled() first.
void CollectRun(const std::string& workload,
                const workloads::RunConfig& config,
                const workloads::RunResult& result,
                std::vector<Section> sections = {});

const std::vector<CollectedRun>& CollectedRuns();
void ClearCollectedRuns();

/// The per-bench JSON document: schema version, bench name, one entry per
/// collected run (config, status, PerfReport, LAR, degradation counters,
/// per-thread and per-node breakdowns, span tree).
std::string BenchJson(const std::string& bench,
                      const std::vector<CollectedRun>& runs);

/// Chrome trace-event format (load into chrome://tracing or Perfetto):
/// one process per run, one track per virtual thread, one complete event
/// per span; ts/dur are virtual cycles presented as microseconds.
std::string ChromeTraceJson(const std::vector<CollectedRun>& runs);

/// printf-style append used by every JSON emitter (this file's, ServingJson,
/// StorageJson). One call formats at most 511 bytes; longer output is
/// truncated.
void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace trace
}  // namespace numalab

#endif  // NUMALAB_TRACE_EXPORT_H_
