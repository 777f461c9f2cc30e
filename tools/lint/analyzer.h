// uvmsim_lint driver: collects files, builds the include graph, runs every
// rule, applies suppressions, and returns findings.
//
// Suppression syntax (enforced, see rules.h meta rules) — the marker
// uvmsim-lint: followed by
//   allow(banned-random, "example justification")
// covers its own line and the following line, so it can sit at the end of
// the offending line or on its own line just above. The justification is
// mandatory; unknown rule ids are findings.
#pragma once

#include <string>
#include <vector>

namespace uvmsim::lint {

struct Finding {
  std::string file;  ///< path as passed, relative to root when under it
  int line = 0;
  std::string rule;      ///< rule id, e.g. "banned-random"
  std::string category;  ///< rule category, e.g. "determinism"
  std::string message;
};

struct LintOptions {
  /// Repository root; project includes resolve against <root>/src,
  /// <root>/bench, <root>/tools/lint, and the including file's directory.
  /// Finding paths are reported relative to this root when possible.
  std::string root = ".";
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
  /// (file, line, rule) and already filtered through suppressions.
  [[nodiscard]] std::vector<Finding> run();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace uvmsim::lint
