// Whole-program (project-mode) tests for uvmsim_lint: call-graph
// reachability, the dataflow rules and stable finding ids. Golden fixtures
// live in tests/lint_fixtures/; the self-analysis test runs the analyzer
// over the real src/, bench/ and tools/ trees and expects no findings.
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer.h"

namespace {

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
       {"hot_transitive_clean.cpp", "unordered_sink_clean.cpp"}) {
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
  // rule:file:symbol — no line number anywhere, so ids survive churn.
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

// ---------------------------------------------------------------------------
// Self-analysis: the project lint of the tree is clean. The only way to
// accept a finding is a justified allow(...)/suppress(...) comment.
// ---------------------------------------------------------------------------

TEST(LintSelfAnalysis, ProjectIsClean) {
  const std::string root = UVMSIM_REPO_ROOT;
  LintOptions opts;
  opts.root = root;
  opts.project = true;
  Linter linter(opts);
  for (const char* dir : {"/src", "/bench", "/tools"}) {
    ASSERT_TRUE(linter.add_path(root + dir)) << dir;
  }
  const std::vector<Finding> found = linter.run();
  EXPECT_TRUE(found.empty())
      << "project lint findings — fix them or add a justified suppression:\n"
      << describe(found);
}

}  // namespace
