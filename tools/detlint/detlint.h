// detlint — determinism lint for the numalab tree.
//
// Every claim this repro makes rests on the bit-determinism contract:
// same seed => byte-identical stdout/JSON (check.sh enforces it
// dynamically by diffing two runs). detlint is the static half of that
// contract: a self-contained lexical analyzer (own comment/string-aware
// tokenizer, no libclang) that scans C++ sources for constructs which
// *can* break the contract and rejects them at build time:
//
//   wall-clock      std::chrono / time() / clock() / <ctime> etc. —
//                   wall time differs across runs by definition
//   host-rand       rand() / std::random_device / std::mt19937 / <random>
//                   — unseeded or host-entropy randomness; all draws must
//                   flow through the seeded numalab::Rng (src/common/rng.h)
//   unordered-iter  iteration over std::unordered_{map,set,...} — order is
//                   hash-seed and ASLR dependent, so it must never feed
//                   exported or ordered state
//   pointer-order   std::map/std::set keyed by pointer, %p formatting,
//                   static_cast<void*> print idiom — pointer values vary
//                   under ASLR
//   float-accum     order-sensitive floating-point accumulation: a
//                   float/double reduced inside unordered iteration, or a
//                   float/double field in a *Counter* struct (counters are
//                   integral by contract)
//   unseeded-rng    numalab::Rng constructed without an explicit seed —
//                   every such site silently draws the same default stream
//   nolint-format   malformed NOLINT-DET suppression (see below)
//
// Suppressions: `// NOLINT-DET(rule): reason` (or `NOLINT-DET(*): reason`)
// on the offending line or the line above suppresses matching findings; a
// missing rule list or empty reason is itself a finding. There is no other
// way to silence a finding: the tree scans clean, and nothing is
// grandfathered.
//
// Output is deterministic: results are sorted, carry no timestamps or
// pointers, and two runs over the same tree are byte-identical — a
// property tools/detlint/detlint_test.cc asserts, since a nondeterministic
// determinism linter would be its own counterexample.

#ifndef NUMALAB_TOOLS_DETLINT_DETLINT_H_
#define NUMALAB_TOOLS_DETLINT_DETLINT_H_

#include <string>
#include <utility>
#include <vector>

namespace numalab {
namespace detlint {

struct Finding {
  std::string rule;
  std::string file;  ///< root-relative, '/'-separated
  int line = 1;
  int col = 1;
  std::string message;
};

struct ScanResult {
  std::vector<Finding> findings;  ///< sorted by (file, line, col, rule)
  int files_scanned = 0;
  int suppressed = 0;  ///< findings silenced by NOLINT-DET
};

/// Rule ids in reporting order, and their one-line descriptions.
const std::vector<std::pair<std::string, std::string>>& Rules();
bool IsKnownRule(const std::string& id);

/// Scans one in-memory buffer. `rel_path` is used for reporting and for
/// the per-file exemptions (src/common/rng.h is exempt from wall-clock,
/// host-rand and unseeded-rng — it IS the sanctioned randomness source).
/// Findings are unsuppressed only; `suppressed_out` (optional) counts the
/// NOLINT-DET-silenced ones.
std::vector<Finding> ScanSource(const std::string& rel_path,
                                const std::string& source,
                                int* suppressed_out);

/// Expands `paths` (files or directories, relative to `root`) into a
/// sorted, deduplicated list of root-relative C++ sources
/// (.h/.hpp/.cc/.cpp). Returns false and sets `error` on a missing path.
bool CollectFiles(const std::string& root,
                  const std::vector<std::string>& paths,
                  std::vector<std::string>* out, std::string* error);

/// Scans `rel_files` under `root`. Returns false and sets `error` on an
/// unreadable file.
bool ScanFiles(const std::string& root,
               const std::vector<std::string>& rel_files, ScanResult* out,
               std::string* error);

/// Deterministic report: one `file:line:col: [rule] message` line per
/// finding, then a summary line.
std::string ToHuman(const ScanResult& r);

}  // namespace detlint
}  // namespace numalab

#endif  // NUMALAB_TOOLS_DETLINT_DETLINT_H_
