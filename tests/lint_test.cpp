// Golden-fixture tests for uvmsim_lint. Each rule has a bad fixture that must
// produce that rule (and nothing else) plus a clean counterpart that must
// produce no findings; the suppression fixtures exercise the meta rules.
// Fixtures live in tests/lint_fixtures/ and are lexed, never compiled; the
// ones that print sit under bench/, where banned-io allows output. The
// self-analysis test lints the real src/, bench/ and tools/ trees.
#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer.h"
#include "rules.h"

namespace {

using uvmsim::lint::Finding;
using uvmsim::lint::Linter;
using uvmsim::lint::LintOptions;

std::string fixture(const std::string& name) {
  return std::string(UVMSIM_LINT_FIXTURES) + "/" + name;
}

std::vector<Finding> lint(const std::vector<std::string>& names) {
  LintOptions opts;
  opts.root = UVMSIM_LINT_FIXTURES;
  Linter linter(opts);
  for (const std::string& n : names) {
    EXPECT_TRUE(linter.add_path(fixture(n))) << "cannot read fixture " << n;
  }
  return linter.run();
}

std::string describe(const std::vector<Finding>& fs) {
  std::ostringstream os;
  for (const auto& f : fs) {
    os << "  " << f.file << ":" << f.line << " [" << f.rule << "] "
       << f.message << "\n";
  }
  return os.str();
}

void expect_only_rule(const std::vector<std::string>& names,
                      const std::string& rule) {
  const std::vector<Finding> fs = lint(names);
  ASSERT_FALSE(fs.empty()) << "expected at least one '" << rule
                           << "' finding in " << names.front();
  for (const auto& f : fs) {
    EXPECT_EQ(f.rule, rule) << "unexpected extra finding:\n" << describe(fs);
    EXPECT_GT(f.line, 0);
    EXPECT_FALSE(f.message.empty());
  }
}

void expect_clean(const std::vector<std::string>& names) {
  const std::vector<Finding> fs = lint(names);
  EXPECT_TRUE(fs.empty()) << "expected clean, got:\n" << describe(fs);
}

struct RuleFixture {
  const char* rule;
  const char* bad;
  const char* clean;
};

// One bad + one clean fixture per rule, as the CI contract requires.
const RuleFixture kRuleFixtures[] = {
    {"banned-random", "banned_random_bad.cpp", "banned_random_clean.cpp"},
    {"banned-clock", "banned_clock_bad.cpp", "banned_clock_clean.cpp"},
    {"banned-io", "banned_io_bad.cpp", "banned_io_clean.cpp"},
    {"unordered-iteration", "bench/unordered_iteration_bad.cpp",
     "bench/unordered_iteration_clean.cpp"},
    {"pointer-keyed-container", "pointer_keyed_bad.cpp",
     "pointer_keyed_clean.cpp"},
    {"thread-id", "thread_id_bad.cpp", "thread_id_clean.cpp"},
    {"mutable-static", "mutable_static_bad.cpp", "mutable_static_clean.cpp"},
    {"task-io", "bench/task_io_bad.cpp", "bench/task_io_clean.cpp"},
    {"task-shared-state", "task_shared_bad.cpp", "task_shared_clean.cpp"},
    {"using-namespace-header", "using_namespace_bad.h",
     "using_namespace_clean.h"},
    {"assert-side-effect", "assert_side_effect_bad.cpp",
     "assert_side_effect_clean.cpp"},
    {"missing-include", "missing_include_bad.h", "missing_include_clean.h"},
    {"missing-pragma-once", "pragma_once_bad.h", "pragma_once_clean.h"},
};

TEST(LintFixtures, EveryBadFixtureTriggersExactlyItsRule) {
  for (const RuleFixture& rf : kRuleFixtures) {
    SCOPED_TRACE(rf.bad);
    expect_only_rule({rf.bad}, rf.rule);
  }
}

TEST(LintFixtures, EveryCleanFixtureIsClean) {
  for (const RuleFixture& rf : kRuleFixtures) {
    SCOPED_TRACE(rf.clean);
    expect_clean({rf.clean});
  }
}

TEST(LintFixtures, IncludeCycleDetected) {
  expect_only_rule({"cycle_a.h", "cycle_b.h"}, "include-cycle");
}

TEST(LintFixtures, AcyclicIncludeChainIsClean) {
  expect_clean({"nocycle_a.h", "nocycle_b.h"});
}

TEST(LintSuppressions, JustifiedSuppressionSilencesTheFinding) {
  expect_clean({"suppress_ok.cpp"});
}

TEST(LintSuppressions, UnknownRuleIsRejected) {
  expect_only_rule({"suppress_unknown.cpp"}, "suppression-unknown-rule");
}

TEST(LintSuppressions, MissingJustificationIsRejected) {
  const std::vector<Finding> fs = lint({"suppress_nojust.cpp"});
  // The malformed suppression is a finding AND does not silence the
  // underlying banned-random violation.
  std::set<std::string> rules;
  for (const auto& f : fs) rules.insert(f.rule);
  EXPECT_TRUE(rules.count("suppression-missing-justification"))
      << describe(fs);
  EXPECT_TRUE(rules.count("banned-random")) << describe(fs);
}

TEST(LintRules, TableIsCompleteAndCategorized) {
  const auto& rules = uvmsim::lint::all_rules();
  EXPECT_GE(rules.size(), 16u);
  const std::set<std::string> cats = {"determinism", "concurrency", "hygiene",
                                      "meta"};
  std::set<std::string> ids;
  for (const auto& r : rules) {
    EXPECT_TRUE(cats.count(std::string(r.category)))
        << r.id << " -> " << r.category;
    EXPECT_FALSE(r.summary.empty()) << r.id;
    EXPECT_TRUE(ids.insert(std::string(r.id)).second)
        << "duplicate rule id " << r.id;
    EXPECT_TRUE(uvmsim::lint::is_known_rule(std::string(r.id)));
  }
  EXPECT_FALSE(uvmsim::lint::is_known_rule("totally-made-up-rule"));
  EXPECT_TRUE(uvmsim::lint::is_meta_rule("suppression-unknown-rule"));
  EXPECT_FALSE(uvmsim::lint::is_meta_rule("banned-random"));
}

// The lint of the tree is clean. The only way to accept a finding is a
// justified allow(...) comment.
TEST(LintSelfAnalysis, TreeIsClean) {
  const std::string root = UVMSIM_REPO_ROOT;
  LintOptions opts;
  opts.root = root;
  Linter linter(opts);
  for (const char* dir : {"/src", "/bench", "/tools"}) {
    ASSERT_TRUE(linter.add_path(root + dir)) << dir;
  }
  const std::vector<Finding> found = linter.run();
  EXPECT_TRUE(found.empty())
      << "lint findings — fix them or add a justified suppression:\n"
      << describe(found);
}

}  // namespace
