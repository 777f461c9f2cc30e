// uvmsim_lint driver: collects files, builds the include graph, runs every
// rule, applies suppressions, and returns findings.
//
// Suppression syntax (enforced, see rules.h meta rules) — the marker
// uvmsim-lint: followed by either
//   allow(banned-random, "example justification")   — covers its own line
//     and the following line, so it can sit at the end of the offending
//     line or on its own line just above; or
//   suppress(banned-random) example justification   — on the line before a
//     function signature, covers that whole function body.
// The justification is mandatory in both forms; unknown rule ids are
// findings.
//
// With LintOptions::project set, the per-file pass is followed by the
// whole-program pass (index -> call graph -> dataflow rules, see index.h /
// callgraph.h / dataflow.h); the per-file unordered-iteration rule is
// superseded by its semantic replacement (unordered-sink-iteration) and
// skipped.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace uvmsim::lint {

struct Finding {
  std::string file;  ///< path as passed, relative to root when under it
  int line = 0;
  std::string rule;      ///< rule id, e.g. "banned-random"
  std::string category;  ///< rule category, e.g. "determinism"
  std::string message;
  /// Nearest enclosing non-lambda function/method, "" at file scope. Part
  /// of the stable finding id, so ids survive line churn.
  std::string symbol;
};

struct LintOptions {
  /// Repository root; project includes resolve against <root>/src,
  /// <root>/bench, <root>/tools/lint, and the including file's directory.
  /// Finding paths are reported relative to this root when possible.
  std::string root = ".";
  /// Enables the whole-program pass (call-graph reachability + dataflow).
  bool project = false;
};

class Linter {
 public:
  explicit Linter(LintOptions opts = {});
  ~Linter();

  Linter(const Linter&) = delete;
  Linter& operator=(const Linter&) = delete;

  /// Adds one file, or every *.h/*.cpp/*.cc under a directory (recursively,
  /// in sorted order). Returns false if the path does not exist or a file
  /// cannot be read.
  bool add_path(const std::string& path);

  /// Runs all rules over the added files. Findings are sorted by
  /// (file, line, rule), already filtered through suppressions, and carry
  /// their enclosing symbol.
  [[nodiscard]] std::vector<Finding> run();

 private:
  struct Impl;
  Impl* impl_;
};

/// Stable id of one finding: "rule:file:symbol". `ordinal` >= 2 appends
/// "#N" for the Nth finding of the same rule in the same symbol.
[[nodiscard]] std::string finding_id(const Finding& f, int ordinal);

/// Ids for a findings list in order, assigning ordinals to duplicates of
/// the same (rule, file, symbol) triple.
[[nodiscard]] std::vector<std::string> finding_ids(
    const std::vector<Finding>& fs);

/// Minimal JSON string escaping for the --json writers.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Serializes findings as a stable JSON document:
///   {"schema_version":2,"count":N,"findings":[{"id":...,"file":...,...}]}
void write_findings_json(std::ostream& os, const std::vector<Finding>& fs);

}  // namespace uvmsim::lint
