// RunConfig / RunResult — the experiment parameter space of Table IV and
// the measurements each simulated run produces.

#ifndef NUMALAB_WORKLOADS_RUN_CONFIG_H_
#define NUMALAB_WORKLOADS_RUN_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/faultlab/fault_plan.h"
#include "src/mem/cost_model.h"
#include "src/mem/page.h"
#include "src/osmodel/os_config.h"
#include "src/perf/counters.h"
#include "src/trace/span.h"

namespace numalab {
namespace workloads {

/// \brief Dataset distributions for the aggregation workloads (Sec. IV-B).
enum class Dataset {
  kMovingCluster,  ///< keys from a gradually sliding window (W1 default)
  kSequential,     ///< incrementing segments, transactional-style
  kZipf,           ///< Zipfian, exponent 0.5 (W2 default)
};

const char* DatasetName(Dataset d);

/// Engine checkpoint quantum of every simulated run (clock-skew bound).
inline constexpr uint64_t kQuantumCycles = 4000;

/// \brief One cell of the experiment grid (Table IV). Defaults are the
/// paper's system defaults (OS scheduler free, First Touch, ptmalloc,
/// AutoNUMA+THP on) so a default-constructed config reproduces the
/// out-of-the-box environment.
struct RunConfig {
  std::string machine = "A";
  int threads = 16;
  osmodel::Affinity affinity = osmodel::Affinity::kNone;
  mem::MemPolicy policy = mem::MemPolicy::kFirstTouch;
  int preferred_node = 0;
  std::string allocator = "ptmalloc";
  bool autonuma = true;
  bool thp = true;

  Dataset dataset = Dataset::kMovingCluster;
  /// Aggregation inputs, scaled from the paper's 100M records / 1M groups
  /// (ratio preserved) so a simulated run completes in seconds.
  uint64_t num_records = 8'000'000;
  uint64_t cardinality = 80'000;
  /// Join inputs, keeping the paper's 1:16 build:probe ratio (16M:256M).
  uint64_t build_rows = 250'000;
  uint64_t probe_rows = 4'000'000;

  uint64_t seed = 42;
  int run_index = 0;  ///< perturbs OS-scheduler randomness across runs

  /// Route all charging through the unbatched scalar reference path instead
  /// of the batched span engine. Slower; exists so parity tests can compare
  /// both implementations bit-for-bit (see MemSystem::SetScalarReference).
  bool scalar_mem_path = false;

  /// Attach the numalab::trace span recorder to this run: workload phase
  /// spans and per-thread counter summaries land in RunResult::trace.
  /// Recording is pure bookkeeping (no virtual-time charges), so results
  /// are unaffected. The process-wide collector enabled by the --json-out /
  /// --trace-out bench flags (see trace::CollectEnabled) attaches the
  /// recorder to every run regardless of this flag.
  bool trace = false;

  /// Attach the numalab::sanity happens-before race detector to this run.
  /// Reports land in RunResult::race_reports; simulated results are
  /// unaffected (the detector is pure bookkeeping). See also
  /// GlobalRaceDetect() for the process-wide --race-detect bench mode.
  bool race_detect = false;

  /// Ablation switches: each turns one model layer off (DESIGN.md §7).
  mem::CostModel costs;

  /// Adaptive placement (hot-page replication + cost-aware migration,
  /// DESIGN.md section 12). Off by default: stock AutoNUMA code paths,
  /// bit-identical to the pre-placement simulator. Enabling it also starts
  /// the AutoNuma daemon (placement samples on the hinting-fault hook) even
  /// when `autonuma` is false.
  bool placement = false;

  /// Fault-injection plan (src/faultlab). A default (disabled) plan is
  /// guaranteed zero-cost: the run takes exactly the code paths — and
  /// produces bit-identical results — it did before faultlab existed. When
  /// disabled here, the process-wide GlobalFaultPlan() (the --faultlab
  /// bench mode) applies instead.
  faultlab::FaultPlan faults;

  /// Virtual-cycle watchdog: when nonzero and every live thread's clock
  /// passes this bound, the run is cut short and RunResult::status is
  /// DeadlineExceeded. 0 disables.
  uint64_t deadline_cycles = 0;
};

/// \brief Outcome of one simulated run.
struct RunResult {
  /// OK for a clean run; OutOfMemory when a worker hit (injected or real)
  /// allocation failure and wound down; DeadlineExceeded when the watchdog
  /// cut the run short. A degraded-but-complete run (spill, offline
  /// redirects, failed migrations) stays OK — see the degradation
  /// counters in report.system.
  Status status;
  uint64_t cycles = 0;           ///< virtual makespan
  perf::PerfReport report;
  uint64_t requested_peak = 0;   ///< allocator-level peak requested bytes
  uint64_t resident_peak = 0;    ///< simulated RSS peak
  uint64_t checksum = 0;         ///< workload-defined result digest
  uint64_t aux_cycles = 0;       ///< e.g. index build time for W4
  uint64_t races = 0;            ///< racy pairs observed (race_detect runs)
  std::vector<std::string> race_reports;  ///< rendered detector reports

  /// Phase spans and per-thread counter summaries (empty unless the run
  /// had a trace recorder attached — RunConfig::trace or --json-out /
  /// --trace-out collection).
  trace::RunTrace trace;

  double MemoryOverhead() const {
    if (requested_peak == 0) return 0.0;
    return static_cast<double>(resident_peak) /
           static_cast<double>(requested_peak);
  }
};

/// Process-wide race-detection switch, flipped by the --race-detect bench
/// flag before any run starts. When on, every SimContext attaches a
/// detector regardless of RunConfig::race_detect, and SimContext::Finish
/// prints all reports to stderr and exits nonzero if any race was seen —
/// the CI contract of scripts/check.sh. Tests wanting to *inspect* races
/// use RunConfig::race_detect instead, which only fills RunResult.
bool GlobalRaceDetect();
void SetGlobalRaceDetect(bool on);

/// Process-wide fault plan, set by the --faultlab bench flag before any run
/// starts. Applies to every SimContext whose own RunConfig::faults is
/// disabled. Returns a disabled plan when unset.
const faultlab::FaultPlan& GlobalFaultPlan();
void SetGlobalFaultPlan(const faultlab::FaultPlan& plan);

}  // namespace workloads
}  // namespace numalab

#endif  // NUMALAB_WORKLOADS_RUN_CONFIG_H_
