// Whole-program (project-mode) tests for uvmsim_lint: call-graph
// reachability, the dataflow rules, the on-disk index cache, stable finding
// ids, SARIF output, and the committed-baseline contract. Golden fixtures
// live in tests/lint_fixtures/; the self-analysis test runs the analyzer
// over the real src/ tree and must match tools/lint/baseline.json exactly.
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer.h"
#include "baseline.h"
#include "sarif.h"

namespace {

namespace fs = std::filesystem;

using uvmsim::lint::Finding;
using uvmsim::lint::Linter;
using uvmsim::lint::LintOptions;

std::string fixture(const std::string& name) {
  return std::string(UVMSIM_LINT_FIXTURES) + "/" + name;
}

std::vector<Finding> lint_project(const std::vector<std::string>& names) {
  LintOptions opts;
  opts.root = UVMSIM_LINT_FIXTURES;
  opts.project = true;
  Linter linter(opts);
  for (const std::string& n : names) {
    EXPECT_TRUE(linter.add_path(fixture(n))) << "cannot read fixture " << n;
  }
  return linter.run();
}

std::string describe(const std::vector<Finding>& fs) {
  std::ostringstream os;
  for (const auto& f : fs) {
    os << "  " << f.file << ":" << f.line << " [" << f.rule << "] ("
       << f.symbol << ") " << f.message << "\n";
  }
  return os.str();
}

TEST(LintProject, HotTransitiveAllocCaughtWithFullChain) {
  const std::vector<Finding> found = lint_project({"hot_transitive_bad.cpp"});
  ASSERT_EQ(found.size(), 1u) << describe(found);
  const Finding& f = found[0];
  EXPECT_EQ(f.rule, "hot-transitive-alloc");
  EXPECT_EQ(f.category, "allocation");
  // The allocation sits two calls below the UVMSIM_HOT entry; the finding
  // must carry the whole chain, in call order.
  const std::size_t p_entry = f.message.find("hot_entry");
  const std::size_t p_one = f.message.find("stage_one");
  const std::size_t p_two = f.message.find("stage_two");
  EXPECT_NE(p_entry, std::string::npos) << f.message;
  EXPECT_NE(p_one, std::string::npos) << f.message;
  EXPECT_NE(p_two, std::string::npos) << f.message;
  EXPECT_LT(p_entry, p_one);
  EXPECT_LT(p_one, p_two);
  EXPECT_NE(f.message.find("make_shared"), std::string::npos) << f.message;
  // Attribution: the finding belongs to the allocating function.
  EXPECT_NE(f.symbol.find("stage_two"), std::string::npos) << f.symbol;
}

TEST(LintProject, LaneCaptureEscapeDetected) {
  const std::vector<Finding> found = lint_project({"lane_capture_bad.cpp"});
  ASSERT_EQ(found.size(), 1u) << describe(found);
  EXPECT_EQ(found[0].rule, "lane-capture-escape");
  EXPECT_NE(found[0].message.find("total_"), std::string::npos)
      << found[0].message;
}

TEST(LintProject, UnorderedSinkIterationDetected) {
  const std::vector<Finding> found = lint_project({"unordered_sink_bad.cpp"});
  ASSERT_EQ(found.size(), 1u) << describe(found);
  EXPECT_EQ(found[0].rule, "unordered-sink-iteration");
  EXPECT_NE(found[0].message.find("counts"), std::string::npos)
      << found[0].message;
  EXPECT_NE(found[0].message.find("emit"), std::string::npos)
      << found[0].message;
}

TEST(LintProject, CleanFixturesAreClean) {
  for (const char* name :
       {"hot_transitive_clean.cpp", "lane_capture_clean.cpp",
        "unordered_sink_clean.cpp"}) {
    SCOPED_TRACE(name);
    const std::vector<Finding> found = lint_project({name});
    EXPECT_TRUE(found.empty()) << describe(found);
  }
}

TEST(LintProject, PerFileUnorderedRuleIsSuperseded) {
  // In project mode the token-level unordered-iteration rule steps aside
  // for its semantic replacement: a bad fixture for the old rule must NOT
  // additionally produce the old finding.
  const std::vector<Finding> found = lint_project({"unordered_sink_bad.cpp"});
  for (const Finding& f : found) {
    EXPECT_NE(f.rule, "unordered-iteration") << describe(found);
  }
}

TEST(LintProject, StableFindingIdsIgnoreLines) {
  const std::vector<Finding> found = lint_project({"hot_transitive_bad.cpp"});
  ASSERT_EQ(found.size(), 1u);
  const std::string id = uvmsim::lint::finding_id(found[0], 1);
  // rule:file:symbol — no line number anywhere, so baselines survive churn.
  EXPECT_EQ(id.find("hot-transitive-alloc:"), 0u) << id;
  EXPECT_NE(id.find("hot_transitive_bad.cpp"), std::string::npos) << id;
  EXPECT_NE(id.find("stage_two"), std::string::npos) << id;
  EXPECT_EQ(id.find(std::to_string(found[0].line) + ":"), std::string::npos);
  // Ordinals disambiguate repeats of the same (rule, file, symbol).
  EXPECT_EQ(uvmsim::lint::finding_id(found[0], 2), id + "#2");
}

TEST(LintProject, JsonUsesSchemaVersion2WithIds) {
  const std::vector<Finding> found = lint_project({"hot_transitive_bad.cpp"});
  ASSERT_FALSE(found.empty());
  std::ostringstream os;
  uvmsim::lint::write_findings_json(os, found);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"id\":\"hot-transitive-alloc:"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"symbol\":"), std::string::npos) << json;
}

TEST(LintProject, SarifDocumentHasRulesResultsAndFingerprints) {
  const std::vector<Finding> found = lint_project({"hot_transitive_bad.cpp"});
  ASSERT_FALSE(found.empty());
  std::ostringstream os;
  uvmsim::lint::write_sarif(os, found);
  const std::string sarif = os.str();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos) << sarif;
  EXPECT_NE(sarif.find("uvmsim_lint"), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"hot-transitive-alloc\""),
            std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find("\"stableId\""), std::string::npos) << sarif;
  EXPECT_NE(sarif.find("hot_transitive_bad.cpp"), std::string::npos) << sarif;
}

TEST(LintProject, BaselineSplitsFreshKnownAndStale) {
  const std::vector<Finding> found = lint_project({"hot_transitive_bad.cpp"});
  ASSERT_EQ(found.size(), 1u);
  const std::string id = uvmsim::lint::finding_id(found[0], 1);
  std::vector<uvmsim::lint::BaselineEntry> entries;
  entries.push_back({id, "accepted for the test"});
  entries.push_back({"banned-random:gone.cpp:nobody", "stale entry"});
  std::vector<Finding> fresh;
  std::vector<Finding> known;
  std::vector<std::string> stale;
  uvmsim::lint::apply_baseline(found, entries, fresh, known, stale);
  EXPECT_TRUE(fresh.empty()) << describe(fresh);
  ASSERT_EQ(known.size(), 1u);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], "banned-random:gone.cpp:nobody");
}

// ---------------------------------------------------------------------------
// Index cache: warm runs hit, edits invalidate exactly the edited TU.
// ---------------------------------------------------------------------------

class LintIndexCache : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the tests of this fixture as
    // parallel processes, so a shared directory races.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("uvmsim_lint_cache_test_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "cache");
    write(dir_ / "a.cpp", "int alpha(int x) { return x + 1; }\n");
    write(dir_ / "b.cpp", "int beta(int x) { return x * 2; }\n");
  }
  void TearDown() override { fs::remove_all(dir_); }

  static void write(const fs::path& p, const std::string& text) {
    std::ofstream out(p, std::ios::trunc);
    out << text;
  }

  uvmsim::lint::IndexCacheReport run() {
    LintOptions opts;
    opts.root = dir_.string();
    opts.project = true;
    opts.cache_dir = (dir_ / "cache").string();
    Linter linter(opts);
    EXPECT_TRUE(linter.add_path((dir_ / "a.cpp").string()));
    EXPECT_TRUE(linter.add_path((dir_ / "b.cpp").string()));
    const std::vector<Finding> found = linter.run();
    EXPECT_TRUE(found.empty()) << describe(found);
    return linter.cache_report();
  }

  fs::path dir_;
};

TEST_F(LintIndexCache, ColdWarmAndSelectiveInvalidation) {
  const auto cold = run();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, 2u);

  const auto warm = run();
  EXPECT_EQ(warm.hits, 2u);
  EXPECT_EQ(warm.misses, 0u);

  // Editing one TU must re-index only that TU: the content hash keys the
  // cache, so the untouched file still hits.
  write(dir_ / "b.cpp", "int beta(int x) { return x * 3; }\n");
  const auto edited = run();
  EXPECT_EQ(edited.hits, 1u);
  EXPECT_EQ(edited.misses, 1u);

  const auto rewarm = run();
  EXPECT_EQ(rewarm.hits, 2u);
  EXPECT_EQ(rewarm.misses, 0u);
}

TEST_F(LintIndexCache, CorruptCacheEntryReindexes) {
  run();
  // Truncate every cache file: the reader must reject them (missing `end`
  // sentinel) and fall back to a re-parse instead of trusting garbage.
  for (const auto& e : fs::directory_iterator(dir_ / "cache")) {
    write(e.path(), "uvmsim-index 2\n");
  }
  const auto r = run();
  EXPECT_EQ(r.hits, 0u);
  EXPECT_EQ(r.misses, 2u);
}

// ---------------------------------------------------------------------------
// Self-analysis: the committed baseline IS the contract for src/.
// ---------------------------------------------------------------------------

TEST(LintSelfAnalysis, SrcMatchesCommittedBaseline) {
  const std::string root = UVMSIM_REPO_ROOT;
  LintOptions opts;
  opts.root = root;
  opts.project = true;
  Linter linter(opts);
  ASSERT_TRUE(linter.add_path(root + "/src"));
  const std::vector<Finding> found = linter.run();

  std::vector<uvmsim::lint::BaselineEntry> entries;
  std::string error;
  ASSERT_TRUE(uvmsim::lint::read_baseline(root + "/tools/lint/baseline.json",
                                          entries, error))
      << error;
  for (const auto& e : entries) {
    EXPECT_FALSE(e.justification.empty())
        << "baseline entry '" << e.id << "' lacks a justification";
    EXPECT_EQ(e.justification.find("TODO"), std::string::npos)
        << "baseline entry '" << e.id << "' still has a TODO justification";
  }

  std::vector<Finding> fresh;
  std::vector<Finding> known;
  std::vector<std::string> stale;
  uvmsim::lint::apply_baseline(found, entries, fresh, known, stale);
  EXPECT_TRUE(fresh.empty()) << "src/ has findings not in the baseline — fix "
                                "them or add a justified entry:\n"
                             << describe(fresh);
  std::ostringstream os;
  for (const auto& s : stale) os << "  " << s << "\n";
  EXPECT_TRUE(stale.empty())
      << "baseline entries matched no finding (remove them):\n"
      << os.str();
}

}  // namespace
