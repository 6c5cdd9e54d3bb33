// Shared helpers for the figure-reproduction benches.

#ifndef NUMALAB_BENCH_BENCH_COMMON_H_
#define NUMALAB_BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/faultlab/faultlab.h"
#include "src/trace/export.h"
#include "src/workloads/run_config.h"

namespace numalab {
namespace bench {

/// Flag names this binary has declared via FlagU64/FlagStr; consulted by
/// ValidateFlags to reject misspelled flags instead of silently ignoring
/// them.
inline std::vector<std::string>& KnownFlags() {
  static std::vector<std::string> flags;
  return flags;
}

/// Idempotent flag registration: parsing the same flag twice (helpers are
/// free to re-scan argv) must not list it twice in --help / FlagError
/// output or hide a genuine duplicate declaration.
inline void RegisterFlag(const char* name) {
  for (const auto& f : KnownFlags()) {
    if (f == name) return;
  }
  KnownFlags().push_back(name);
}

[[noreturn]] inline void FlagError(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  if (!KnownFlags().empty()) {
    std::fprintf(stderr, "known flags:");
    for (const auto& f : KnownFlags())
      std::fprintf(stderr, " --%s=...", f.c_str());
    std::fprintf(stderr, "\n");
  } else {
    std::fprintf(stderr, "this bench takes no flags\n");
  }
  std::exit(2);
}

/// Parses --records=N style flags; returns the default when the flag is
/// absent. Fails fast (exit 2) on malformed values — `--records=12x` is an
/// error, not 12. Pair with a ValidateFlags call after all FlagU64 calls so
/// misspelled flags are rejected too.
inline uint64_t FlagU64(int argc, char** argv, const char* name,
                        uint64_t def) {
  RegisterFlag(name);
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      const char* val = argv[i] + prefix.size();
      if (*val < '0' || *val > '9') {
        FlagError(std::string(argv[i]) + ": value must be a non-negative integer");
      }
      errno = 0;
      char* end = nullptr;
      uint64_t v = std::strtoull(val, &end, 10);
      if (errno == ERANGE) {
        FlagError(std::string(argv[i]) + ": value out of range");
      }
      if (*end != '\0') {
        FlagError(std::string(argv[i]) + ": trailing garbage after number");
      }
      return v;
    }
  }
  return def;
}

/// Parses --name=value string flags (e.g. --json-out=PATH); returns the
/// default when absent. Any value, including the empty string, is accepted.
inline std::string FlagStr(int argc, char** argv, const char* name,
                           const std::string& def) {
  RegisterFlag(name);
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return def;
}

/// Rejects any argument that is not a declared --flag=value. Call once in
/// main, after every FlagU64/FlagStr call has registered its name.
/// `--help` is accepted: it prints the declared flags and exits 0.
inline void ValidateFlags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      std::printf("usage: %s [--flag=value ...]\n", argv[0]);
      if (!KnownFlags().empty()) {
        std::printf("known flags:");
        for (const auto& f : KnownFlags()) std::printf(" --%s=...", f.c_str());
        std::printf("\n");
      } else {
        std::printf("this bench takes no flags\n");
      }
      std::exit(0);
    }
    const char* eq = std::strchr(arg, '=');
    if (std::strncmp(arg, "--", 2) != 0 || eq == nullptr) {
      FlagError(std::string(arg) + ": expected --flag=value");
    }
    std::string name(arg + 2, static_cast<size_t>(eq - arg - 2));
    bool known = false;
    for (const auto& f : KnownFlags()) {
      if (f == name) {
        known = true;
        break;
      }
    }
    if (!known) FlagError(std::string(arg) + ": unrecognized flag");
  }
}

/// Declares and applies the --race-detect=0|1 flag every bench accepts:
/// nonzero flips the process-wide numalab::sanity switch (see
/// workloads::GlobalRaceDetect), so every simulated run in this process is
/// race-checked and the binary exits nonzero on the first racy run.
/// Detection is pure bookkeeping — simulated results are unchanged — so
/// RACE_DETECT=1 ./run_benches.sh is a drop-in CI gate.
inline void ParseRaceDetectFlag(int argc, char** argv) {
  workloads::SetGlobalRaceDetect(
      FlagU64(argc, argv, "race-detect", 0) != 0);
}

/// Declares and applies the --faultlab=0|1 flag every bench accepts:
/// nonzero installs the canned faultlab::MemoryPressurePlan() as the
/// process-wide fault plan (see workloads::GlobalFaultPlan), capping every
/// simulated node's memory so binds spill along the zonelist. Runs stay
/// deterministic but their numbers differ from the no-fault goldens —
/// FAULTLAB=1 ./run_benches.sh is a robustness gate, not a reproduction
/// run.
inline void ParseFaultlabFlag(int argc, char** argv) {
  if (FlagU64(argc, argv, "faultlab", 0) != 0) {
    workloads::SetGlobalFaultPlan(faultlab::MemoryPressurePlan());
  }
}

namespace internal {
/// Output paths + bench label for the exit-time structured export.
struct TraceOut {
  std::string bench;
  std::string json_path;
  std::string trace_path;
};
inline TraceOut& TraceOutState() {
  static TraceOut state;
  return state;
}

inline void WriteOrDie(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    std::_Exit(3);
  }
  if (std::fwrite(body.data(), 1, body.size(), f) != body.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "error: failed writing %s\n", path.c_str());
    std::_Exit(3);
  }
}

/// atexit hook: serialize every collected run. Registered only when an
/// output path was given, so plain runs pay nothing at exit.
inline void WriteTraceOutputs() {
  const TraceOut& st = TraceOutState();
  if (!st.json_path.empty()) {
    WriteOrDie(st.json_path,
               trace::BenchJson(st.bench, trace::CollectedRuns()));
  }
  if (!st.trace_path.empty()) {
    WriteOrDie(st.trace_path,
               trace::ChromeTraceJson(trace::CollectedRuns()));
  }
}
}  // namespace internal

/// Declares and applies the structured-export flags every bench accepts:
///   --json-out=PATH   write one schema-versioned JSON document (config,
///                     status, PerfReport, LAR, degradation counters and
///                     the phase-span tree of every simulated run) at exit
///   --trace-out=PATH  write the same runs as Chrome trace events
///                     (chrome://tracing / Perfetto) at exit
/// Either flag enables the process-wide run collector (trace::CollectRun),
/// which also attaches the span recorder to every SimContext. Collection is
/// pure bookkeeping: stdout and simulated results are byte-identical with
/// or without it.
inline void ParseTraceFlags(int argc, char** argv) {
  internal::TraceOut& st = internal::TraceOutState();
  st.json_path = FlagStr(argc, argv, "json-out", "");
  st.trace_path = FlagStr(argc, argv, "trace-out", "");
  if (st.json_path.empty() && st.trace_path.empty()) return;
  const char* slash = std::strrchr(argv[0], '/');
  st.bench = slash != nullptr ? slash + 1 : argv[0];
  trace::SetCollectEnabled(true);
  // Touch the collector's static storage *before* registering the atexit
  // writer: function-local statics are destroyed in reverse construction
  // order, so constructing it here guarantees it outlives the writer.
  trace::CollectedRuns();
  std::atexit(&internal::WriteTraceOutputs);
}

/// The shared bench entry path: parses the flags every bench accepts
/// (--race-detect, --faultlab, --json-out, --trace-out) and then rejects
/// anything undeclared. Call it once at the top of main, AFTER the bench's
/// own FlagU64/FlagStr calls — flag lookups register their names, and
/// ValidateFlags (and --help) only knows the flags declared before it runs.
/// Keeping the four parse calls here instead of in each bench means new
/// common flags reach every binary at once and --help output cannot drift.
inline void BenchMain(int argc, char** argv) {
  ParseRaceDetectFlag(argc, argv);
  ParseFaultlabFlag(argc, argv);
  ParseTraceFlags(argc, argv);
  ValidateFlags(argc, argv);
}

/// The paper's "modified OS configuration": Sparse affinity, AutoNUMA and
/// THP off. Policy/allocator are the experiment variables on top.
inline workloads::RunConfig TunedBase(const std::string& machine,
                                      int threads) {
  workloads::RunConfig c;
  c.machine = machine;
  c.threads = threads;
  c.affinity = osmodel::Affinity::kSparse;
  c.autonuma = false;
  c.thp = false;
  c.policy = mem::MemPolicy::kFirstTouch;
  c.allocator = "ptmalloc";
  return c;
}

/// The out-of-the-box configuration (Linux defaults).
inline workloads::RunConfig DefaultBase(const std::string& machine,
                                        int threads) {
  workloads::RunConfig c;
  c.machine = machine;
  c.threads = threads;
  c.affinity = osmodel::Affinity::kNone;
  c.autonuma = true;
  c.thp = true;
  c.policy = mem::MemPolicy::kFirstTouch;
  c.allocator = "ptmalloc";
  return c;
}

/// The paper's five allocators (Figs. 5c, 6, 7, 9), in table-row order.
inline constexpr const char* kPaperAllocators[] = {
    "ptmalloc", "jemalloc", "tcmalloc", "hoard", "tbbmalloc"};

/// \brief A memory placement policy and its table label.
struct NamedPolicy {
  const char* name;
  mem::MemPolicy policy;
};

/// The placement policies of the Fig. 5d, 6 and 7 tables, in column order
/// (Fig. 5a/5b adds Preferred).
inline constexpr NamedPolicy kPaperPolicies[] = {
    {"FirstTouch", mem::MemPolicy::kFirstTouch},
    {"Interleave", mem::MemPolicy::kInterleave},
    {"Localalloc", mem::MemPolicy::kLocalAlloc}};

inline double GCycles(uint64_t cycles) {
  return static_cast<double>(cycles) / 1e9;
}

}  // namespace bench
}  // namespace numalab

#endif  // NUMALAB_BENCH_BENCH_COMMON_H_
