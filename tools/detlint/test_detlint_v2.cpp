// Tests for the v2 cross-TU layer: the two-phase project scan (lock-order,
// hot-path purity, accounting), the tokenizer differential fixtures, the
// default directory excludes, SARIF output, and --fix round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "detlint.hpp"
#include "obs/json.hpp"

#ifndef DETLINT_TESTDATA_DIR
#error "build must define DETLINT_TESTDATA_DIR"
#endif

namespace cdn::detlint {
namespace {

namespace fs = std::filesystem;

/// Findings as (rule-id, line) pairs sorted by (file, line, rule) so the
/// pinned expectations below are order-independent.
std::vector<std::pair<std::string, int>> rule_lines(
    std::vector<Finding> findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return std::string(rule_id(a.rule)) < rule_id(b.rule);
            });
  std::vector<std::pair<std::string, int>> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(rule_id(f.rule), f.line);
  return out;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const fs::path& path, const std::string& text) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out) << "cannot write " << path;
}

// ---- lock-order ----------------------------------------------------------

TEST(DetlintLockOrder, CycleAcrossTwoTranslationUnits) {
  // left.cpp takes left_ then right_; right.cpp takes right_ then left_.
  // Neither file is wrong alone — only the merged project model shows the
  // cycle, anchored at the lexically smallest witness edge.
  const auto findings =
      scan_project(DETLINT_TESTDATA_DIR, {"v2/lockcycle_bad"});
  EXPECT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{
                {"lock-order-cycle", 8}}));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "v2/lockcycle_bad/left.cpp");
  // The message names the canonical per-class mutexes and both witnesses.
  EXPECT_NE(findings[0].message.find("PairBad::left_"), std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("PairBad::right_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("right.cpp:8"), std::string::npos);
}

TEST(DetlintLockOrder, SpinMutexJoinsTheAcquisitionGraph) {
  // Same shape as above with one side a SpinMutex taken through
  // SpinMutexLock: the cycle must still be found, with the spin lock's
  // canonical per-class name in the message.
  const auto findings =
      scan_project(DETLINT_TESTDATA_DIR, {"v2/lockcycle_spin"});
  EXPECT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{
                {"lock-order-cycle", 8}}));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("PairSpin::node_"), std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("PairSpin::outer_"), std::string::npos);
}

TEST(DetlintLockOrder, ConsistentOrderAcrossTUsIsClean) {
  const auto findings =
      scan_project(DETLINT_TESTDATA_DIR, {"v2/lockcycle_good"});
  EXPECT_TRUE(findings.empty()) << to_json(findings);
}

// ---- hot-path purity -----------------------------------------------------

TEST(DetlintHotPurity, EveryFamilyFiresAtPinnedLines) {
  // The CDN_HOT markers live on the declarations in pump.hpp; all five
  // findings land in pump.cpp, which carries no marker of its own — this
  // pins the cross-TU decl-to-definition hot transfer. cold_region() has
  // the same alloc/throw/IO body outside any hot region and contributes
  // nothing.
  const auto findings = scan_project(DETLINT_TESTDATA_DIR, {"v2/hot_bad"});
  EXPECT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{
                {"virtual-in-hot", 9},
                {"lock-in-hot", 14},
                {"alloc-in-hot", 24},
                {"throw-in-hot", 28},
                {"io-in-hot", 29}}))
      << to_json(findings);
  for (const auto& f : findings) {
    EXPECT_EQ(f.file, "v2/hot_bad/pump.cpp");
  }
}

TEST(DetlintHotPurity, ReservedGrowthAndSuppressedVirtualAreClean) {
  // BufGood::fill is hot and grows v_, but BufGood::setup .reserve()s the
  // member, which exempts the growth; the virtual dispatch carries a
  // reasoned detlint:allow.
  const auto findings = scan_project(DETLINT_TESTDATA_DIR, {"v2/hot_good"});
  EXPECT_TRUE(findings.empty()) << to_json(findings);
}

// ---- accounting ----------------------------------------------------------

TEST(DetlintAccounting, UnreferencedMemberFiresOnceWaiverSilences) {
  // TableBad omits w_ from metadata_bytes() -> one finding at the
  // definition. TableGood references every member and TableWaived carries
  // a reasoned allow — same file, no further findings.
  const auto findings =
      scan_project(DETLINT_TESTDATA_DIR, {"v2/accounting"});
  EXPECT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{{"accounting", 11}}))
      << to_json(findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "v2/accounting/table.hpp");
  EXPECT_NE(findings[0].message.find("'w_'"), std::string::npos)
      << findings[0].message;
}

// ---- tokenizer differentials ---------------------------------------------

TEST(DetlintTokenizer, TortureFixtureIsCompletelyClean) {
  // Raw strings (plain, custom-delimiter with a fake `)"` closer,
  // encoding-prefixed), a backslash-continued line comment, a block
  // comment, and digit separators — each hiding tokens that fire every v1
  // rule when live. Both scan layers must see zero findings.
  const auto findings = scan_project(DETLINT_TESTDATA_DIR, {"v2/tokenizer"});
  EXPECT_TRUE(findings.empty()) << to_json(findings);
}

TEST(DetlintTokenizer, SameTokenFiresOutsideTheRawString) {
  // The differential: one std::rand() inside a raw string, one live. Only
  // the live one may fire, and at its exact line.
  const auto findings = scan_source(
      "src/core/fixture.cpp",
      "const char* s = R\"(std::rand();)\";\n"
      "int f() { return std::rand(); }\n");
  EXPECT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{{"raw-rng", 2}}));
}

TEST(DetlintTokenizer, ContinuedLineCommentSwallowsNextLine) {
  const auto findings = scan_source("src/core/fixture.cpp",
                                    "// comment continues \\\n"
                                    "std::rand();\n"
                                    "int g() { return std::rand(); }\n");
  EXPECT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{{"raw-rng", 3}}));
}

// ---- default excludes ----------------------------------------------------

TEST(DetlintExcludes, BuildDirectoriesAreSkippedByDefault) {
  // exclude_tree/build/planted.cpp holds a raw-rng violation; the default
  // exclude list (build*, .git) must keep both scan layers from reading
  // it. Clearing the excludes surfaces it — proof the planted file is
  // really there and really bad.
  EXPECT_TRUE(scan_tree(DETLINT_TESTDATA_DIR, {"v2/exclude_tree"}).empty());
  EXPECT_TRUE(
      scan_project(DETLINT_TESTDATA_DIR, {"v2/exclude_tree"}).empty());

  Options opts;
  opts.exclude_dirs.clear();
  const auto findings =
      scan_tree(DETLINT_TESTDATA_DIR, {"v2/exclude_tree"}, opts);
  EXPECT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{{"raw-rng", 4}}));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "v2/exclude_tree/build/planted.cpp");
}

// ---- SARIF ---------------------------------------------------------------

TEST(DetlintSarif, ReportParsesAndCarriesLevelsAndLocations) {
  const auto cycle =
      scan_project(DETLINT_TESTDATA_DIR, {"v2/lockcycle_bad"});
  ASSERT_EQ(cycle.size(), 1u);
  auto rng = scan_source("src/core/fixture.cpp",
                         "int f() { return std::rand(); }\n");
  ASSERT_EQ(rng.size(), 1u);
  std::vector<Finding> findings = cycle;
  findings.push_back(rng[0]);

  std::string error;
  const auto doc = cdn::obs::json::parse(to_sarif(findings), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("version")->as_string(), "2.1.0");
  const auto& run = doc->find("runs")->as_array()[0];
  EXPECT_EQ(run.find("tool")->find("driver")->find("name")->as_string(),
            "detlint");
  // The driver advertises every rule id, including the v2 passes.
  const auto& rules =
      run.find("tool")->find("driver")->find("rules")->as_array();
  bool has_lock_order = false;
  for (const auto& r : rules) {
    if (r.find("id")->as_string() == "lock-order-cycle")
      has_lock_order = true;
  }
  EXPECT_TRUE(has_lock_order);

  const auto& results = run.find("results")->as_array();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].find("ruleId")->as_string(), "lock-order-cycle");
  EXPECT_EQ(results[0].find("level")->as_string(), "error");
  EXPECT_EQ(results[1].find("ruleId")->as_string(), "raw-rng");
  EXPECT_EQ(results[1].find("level")->as_string(), "warning");
  const auto& loc = results[0]
                        .find("locations")
                        ->as_array()[0]
                        .find("physicalLocation");
  EXPECT_EQ(loc->find("artifactLocation")->find("uri")->as_string(),
            "v2/lockcycle_bad/left.cpp");
  EXPECT_EQ(loc->find("region")->find("startLine")->as_number(), 8);
}

// ---- --fix ---------------------------------------------------------------

TEST(DetlintFix, SuppressionAndPragmaFixesRoundTripIdempotently) {
  const fs::path root =
      fs::path(::testing::TempDir()) / "detlint_fix_roundtrip";
  fs::remove_all(root);
  spit(root / "src/core/widget.cpp",
       "// Uses the process-global generator on purpose.\n"
       "int widget_roll() { return std::rand(); }\n");
  spit(root / "src/core/widget.hpp",
       "// A header that forgot its include guard.\n"
       "int widget_roll();\n");

  auto findings = scan_project(root.string(), {"src"});
  ASSERT_EQ(rule_lines(findings),
            (std::vector<std::pair<std::string, int>>{
                {"raw-rng", 2}, {"pragma-once", 1}}))
      << to_json(findings);

  std::vector<std::string> fixed;
  EXPECT_EQ(apply_fixes(root.string(), findings, &fixed), 2);
  EXPECT_EQ(fixed, (std::vector<std::string>{"src/core/widget.cpp",
                                             "src/core/widget.hpp"}));

  // After the fix pass both files scan clean: the .cpp line gained a
  // trailing detlint:allow (with a TODO reason to force a human pass) and
  // the header gained #pragma once after its leading comment block.
  EXPECT_TRUE(scan_project(root.string(), {"src"}).empty());
  const std::string cpp_after = slurp(root / "src/core/widget.cpp");
  const std::string hpp_after = slurp(root / "src/core/widget.hpp");
  EXPECT_NE(cpp_after.find("// detlint:allow(raw-rng, TODO: justify)"),
            std::string::npos)
      << cpp_after;
  EXPECT_NE(hpp_after.find("forgot its include guard.\n#pragma once\n"),
            std::string::npos)
      << hpp_after;

  // Idempotency: a second fix pass has nothing to do and changes nothing.
  EXPECT_EQ(apply_fixes(root.string(),
                        scan_project(root.string(), {"src"}), &fixed),
            0);
  EXPECT_EQ(slurp(root / "src/core/widget.cpp"), cpp_after);
  EXPECT_EQ(slurp(root / "src/core/widget.hpp"), hpp_after);
  fs::remove_all(root);
}

TEST(DetlintFix, GraphFindingsAreNeverAutoFixed) {
  EXPECT_FALSE(rule_is_fixable(Rule::kLockOrderCycle));
  EXPECT_TRUE(rule_is_fixable(Rule::kRawRng));
  EXPECT_TRUE(rule_is_fixable(Rule::kPragmaOnce));
  EXPECT_TRUE(rule_is_fixable(Rule::kAllocInHot));
}

}  // namespace
}  // namespace cdn::detlint
