// Tests for detlint: every rule fires on its fixture, clean fixtures stay
// clean (violations inside comments/strings must not flag), suppressions
// and the baseline round-trip, and the linter's own output is
// deterministic — two scans of the real tree must be byte-identical, since
// a nondeterministic determinism linter would be its own counterexample.

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tools/detlint/detlint.h"

namespace numalab {
namespace detlint {
namespace {

std::string ReadFixture(const std::string& name) {
  std::string path = std::string(DETLINT_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Finding> Scan(const std::string& fixture,
                          int* suppressed = nullptr) {
  int count = 0;
  std::vector<Finding> f =
      ScanSource("testdata/" + fixture, ReadFixture(fixture),
                 suppressed != nullptr ? suppressed : &count);
  return f;
}

std::set<std::string> RulesIn(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  return rules;
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const Finding& f : findings) n += f.rule == rule ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// Per-rule fixtures.

TEST(DetlintRules, WallClockFixtureFlagsEveryPattern) {
  std::vector<Finding> f = Scan("bad_wallclock.cc");
  EXPECT_EQ(RulesIn(f), std::set<std::string>{"wall-clock"});
  // Two hazard includes + chrono::steady_clock + time() + clock().
  EXPECT_GE(CountRule(f, "wall-clock"), 5);
}

TEST(DetlintRules, HostRandFixtureFlagsEveryPattern) {
  std::vector<Finding> f = Scan("bad_hostrand.cc");
  EXPECT_EQ(RulesIn(f), std::set<std::string>{"host-rand"});
  // <random> + random_device + mt19937 + srand + rand.
  EXPECT_GE(CountRule(f, "host-rand"), 5);
}

TEST(DetlintRules, UnorderedIterFixtureFlagsRangeForAndBegin) {
  std::vector<Finding> f = Scan("bad_unordered_iter.cc");
  EXPECT_EQ(RulesIn(f), std::set<std::string>{"unordered-iter"});
  EXPECT_EQ(CountRule(f, "unordered-iter"), 2);
}

TEST(DetlintRules, PointerOrderFixtureFlagsKeysAndFormatting) {
  std::vector<Finding> f = Scan("bad_pointer_order.cc");
  EXPECT_EQ(RulesIn(f), std::set<std::string>{"pointer-order"});
  // map<Node*,..> + set<const Node*> + "%p".
  EXPECT_EQ(CountRule(f, "pointer-order"), 3);
}

TEST(DetlintRules, FloatAccumFixtureFlagsCounterFieldAndReduction) {
  std::vector<Finding> f = Scan("bad_float_accum.cc");
  EXPECT_EQ(RulesIn(f),
            (std::set<std::string>{"float-accum", "unordered-iter"}));
  // double field in *Counters* struct + `total +=` inside unordered loop.
  EXPECT_EQ(CountRule(f, "float-accum"), 2);
}

TEST(DetlintRules, UnseededRngFixtureFlagsDefaultConstructionOnly) {
  std::vector<Finding> f = Scan("bad_unseeded_rng.cc");
  EXPECT_EQ(RulesIn(f), std::set<std::string>{"unseeded-rng"});
  // `Rng rng;` + `Rng{}` — but not `Rng rng(seed)` or the `rng_` member.
  EXPECT_EQ(CountRule(f, "unseeded-rng"), 2);
}

TEST(DetlintRules, MalformedSuppressionsFlagAndDoNotSuppress) {
  std::vector<Finding> f = Scan("bad_suppression.cc");
  // Four broken NOLINT-DETs next to time() calls (plus the header comment
  // mentioning NOLINT-DET in prose, itself malformed — working as
  // intended: prose near code should use the full well-formed syntax).
  EXPECT_GE(CountRule(f, "nolint-format"), 4);
  // A malformed suppression must NOT silence the underlying finding.
  EXPECT_EQ(CountRule(f, "wall-clock"), 4);
}

// ---------------------------------------------------------------------------
// Clean fixtures.

TEST(DetlintClean, CommentsAndStringsNeverFlag) {
  int suppressed = 0;
  std::vector<Finding> f = Scan("clean.cc", &suppressed);
  EXPECT_TRUE(f.empty()) << ToHuman(ScanResult{f, 1, 0, 0});
  EXPECT_EQ(suppressed, 1);  // the sorted-export NOLINT-DET
}

TEST(DetlintClean, WellFormedSuppressionsSilenceEverything) {
  int suppressed = 0;
  std::vector<Finding> f = Scan("suppressed_clean.cc", &suppressed);
  EXPECT_TRUE(f.empty()) << ToHuman(ScanResult{f, 1, 0, 0});
  // same-line + line-above + wildcard + pointer-map + two via multi-rule.
  EXPECT_EQ(suppressed, 6);
}

TEST(DetlintClean, RngHeaderIsExemptFromRandRules) {
  // The sanctioned randomness source may mention everything it implements.
  std::vector<Finding> f = ScanSource(
      "src/common/rng.h",
      "struct SplitMix64 { };\n"
      "class Rng { Rng() {} };\n"
      "// like std::mt19937 but seeded\n"
      "uint64_t x = time(nullptr);\n",
      nullptr);
  EXPECT_TRUE(f.empty());
}

// ---------------------------------------------------------------------------
// Suppression parsing details.

TEST(DetlintSuppression, OnlyNamedRuleIsSuppressed) {
  int suppressed = 0;
  std::vector<Finding> f = ScanSource(
      "x.cc",
      "// NOLINT-DET(host-rand): wrong rule for this line\n"
      "uint64_t t = time(nullptr);\n",
      &suppressed);
  EXPECT_EQ(CountRule(f, "wall-clock"), 1);
  EXPECT_EQ(suppressed, 0);
}

TEST(DetlintSuppression, LineAboveDoesNotLeakTwoLinesDown) {
  int suppressed = 0;
  std::vector<Finding> f = ScanSource(
      "x.cc",
      "// NOLINT-DET(wall-clock): only covers the next line\n"
      "int unrelated = 0;\n"
      "uint64_t t = time(nullptr);\n",
      &suppressed);
  EXPECT_EQ(CountRule(f, "wall-clock"), 1);
  EXPECT_EQ(suppressed, 0);
}

// ---------------------------------------------------------------------------
// Baseline round-trip.

TEST(DetlintBaseline, RenderLoadRoundTripSilencesExactlyThoseFindings) {
  std::string source = ReadFixture("bad_wallclock.cc");
  int suppressed = 0;
  std::vector<Finding> findings =
      ScanSource("testdata/bad_wallclock.cc", source, &suppressed);
  ASSERT_FALSE(findings.empty());

  // Render -> write -> load.
  std::string baseline_text = RenderBaseline(findings);
  std::string path =
      ::testing::TempDir() + "/detlint_baseline_roundtrip.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << baseline_text;
  }
  std::map<std::string, int> baseline;
  std::string error;
  ASSERT_TRUE(LoadBaseline(path, &baseline, &error)) << error;
  EXPECT_EQ(baseline.size(), findings.size());

  // Every fingerprint the scan produces is covered.
  for (const Finding& f : findings) {
    EXPECT_EQ(baseline.count(f.rule + ":" + FingerprintHex(f)), 1u)
        << f.rule << " " << f.line;
  }
}

TEST(DetlintBaseline, FingerprintTracksContentNotLineNumber) {
  Finding a{"wall-clock", "x.cc", 10, 3, "m", "auto t = time(nullptr);"};
  Finding b = a;
  b.line = 99;  // moved, content unchanged
  EXPECT_EQ(FingerprintHex(a), FingerprintHex(b));
  b.line_text = "auto t2 = time(nullptr);";  // edited
  EXPECT_NE(FingerprintHex(a), FingerprintHex(b));
}

TEST(DetlintBaseline, MalformedEntryIsAnError) {
  std::string path = ::testing::TempDir() + "/detlint_baseline_bad.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "# comment ok\n\nwall-clock only-one-colon\n";
  }
  std::map<std::string, int> baseline;
  std::string error;
  EXPECT_FALSE(LoadBaseline(path, &baseline, &error));
  EXPECT_NE(error.find("rule:fingerprint:path"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism of the linter itself, over the real tree.

TEST(DetlintDeterminism, TwoTreeScansAreByteIdentical) {
  std::string root = DETLINT_REPO_ROOT;
  std::vector<std::string> files;
  std::string error;
  ASSERT_TRUE(
      CollectFiles(root, {"src", "bench", "tests"}, &files, &error))
      << error;
  ASSERT_GT(files.size(), 50u);

  ScanResult a, b;
  ASSERT_TRUE(ScanFiles(root, files, {}, &a, &error)) << error;
  ASSERT_TRUE(ScanFiles(root, files, {}, &b, &error)) << error;
  EXPECT_EQ(ToJson(a), ToJson(b));
  EXPECT_EQ(ToHuman(a), ToHuman(b));
}

TEST(DetlintDeterminism, JsonEscapesAndSortsStably) {
  ScanResult r;
  r.files_scanned = 1;
  r.findings.push_back(
      {"wall-clock", "b.cc", 2, 1, "msg \"quoted\"\n", "text"});
  r.findings.push_back({"host-rand", "a.cc", 1, 1, "msg", "text"});
  std::sort(r.findings.begin(), r.findings.end(),
            [](const Finding& x, const Finding& y) {
              return std::tie(x.file, x.line) < std::tie(y.file, y.line);
            });
  std::string json = ToJson(r);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_LT(json.find("a.cc"), json.find("b.cc"));
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The tree itself must be clean (same gate as ctest's detlint_tree and
// check.sh stage 8, run in-process so failures show the findings).

TEST(DetlintTree, RepoScansCleanModuloBaseline) {
  std::string root = DETLINT_REPO_ROOT;
  std::vector<std::string> files;
  std::string error;
  ASSERT_TRUE(CollectFiles(root, {"src", "bench", "tests", "examples"},
                           &files, &error))
      << error;

  std::map<std::string, int> baseline;
  ASSERT_TRUE(LoadBaseline(root + "/tools/detlint/baseline.txt", &baseline,
                           &error))
      << error;

  ScanResult r;
  ASSERT_TRUE(ScanFiles(root, files, baseline, &r, &error)) << error;
  EXPECT_TRUE(r.findings.empty()) << ToHuman(r);
}

// Rule catalog sanity: ids are unique, described, and the acceptance
// criterion of >=5 distinct rule classes holds.

TEST(DetlintCatalog, RulesAreUniqueAndDescribed) {
  std::set<std::string> ids;
  for (const auto& [rule, desc] : Rules()) {
    EXPECT_TRUE(ids.insert(rule).second) << "duplicate rule " << rule;
    EXPECT_FALSE(desc.empty()) << rule;
    EXPECT_TRUE(IsKnownRule(rule));
  }
  EXPECT_GE(ids.size(), 5u);
  EXPECT_FALSE(IsKnownRule("not-a-rule"));
}

}  // namespace
}  // namespace detlint
}  // namespace numalab
