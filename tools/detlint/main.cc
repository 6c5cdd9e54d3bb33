// detlint command-line driver.
//
//   detlint [--root=DIR] [--list-rules] [PATH...]
//
// PATHs (files or directories, relative to --root) are expanded to
// .h/.hpp/.cc/.cpp sources; with none, the whole gated tree (kTreePaths)
// is scanned. Exit code: 0 clean (or everything suppressed), 1 findings,
// 2 usage/IO error. Output is deterministic — sorted, no timestamps — so
// two runs over the same tree are byte-identical.

#include <cstdio>
#include <string>
#include <vector>

#include "tools/detlint/detlint.h"

namespace {

/// What `detlint --root=<repo>` scans: every source tree that builds into
/// a bench, test or example. tools/detlint itself is exempt (IsExempt).
const std::vector<std::string> kTreePaths = {"src", "bench", "tests",
                                             "examples"};

constexpr const char* kUsage =
    "usage: detlint [options] [PATH...]\n"
    "\n"
    "Determinism lint for the numalab tree. PATHs are files or directories\n"
    "relative to --root (default: src bench tests examples).\n"
    "\n"
    "  --root=DIR    repo root paths are resolved against (default .)\n"
    "  --list-rules  print the rule catalog and exit\n"
    "  --help        this text\n"
    "\n"
    "Suppress a single finding with `// NOLINT-DET(rule): reason` on the\n"
    "line or the line above. Exit: 0 clean, 1 findings, 2 error.\n";

}  // namespace

int main(int argc, char** argv) {
  namespace dl = numalab::detlint;

  std::string root = ".";
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--list-rules") {
      for (const auto& [rule, desc] : dl::Rules()) {
        std::printf("%-16s %s\n", rule.c_str(), desc.c_str());
      }
      return 0;
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(std::char_traits<char>::length("--root="));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "detlint: unknown option '%s'\n%s", arg.c_str(),
                   kUsage);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) paths = kTreePaths;

  std::string error;
  std::vector<std::string> files;
  dl::ScanResult result;
  if (!dl::CollectFiles(root, paths, &files, &error) ||
      !dl::ScanFiles(root, files, &result, &error)) {
    std::fprintf(stderr, "detlint: %s\n", error.c_str());
    return 2;
  }
  std::fputs(dl::ToHuman(result).c_str(), stdout);
  return result.findings.empty() ? 0 : 1;
}
