// Project-mode semantic rules over the whole-program index + call graph:
//
//   hot-transitive-alloc / -io / -clock / -random
//     Everything transitively callable from a UVMSIM_HOT function is checked
//     for allocation, I/O, wall clocks, and RNG; findings carry the call
//     chain from the hot root to the offending site.
//
//   lane-capture-escape
//     A by-reference capture (or captured member state) mutated inside a
//     parallel_for lambda must be indexed by a lambda-local or std::atomic.
//
//   unordered-sink-iteration
//     Range-for over an unordered container is flagged only when the loop
//     body performs I/O or calls something that transitively can — the
//     output-affecting subset of the per-file unordered-iteration rule.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "callgraph.h"
#include "index.h"

namespace uvmsim::lint {

struct ProjectFinding {
  int file = -1;  ///< index into the FileIndex vector
  int line = 0;
  std::string rule;
  std::string message;
  /// Display name of the nearest non-lambda symbol containing the site;
  /// feeds the stable finding id (rule + file + symbol).
  std::string symbol;
};

/// `unordered_names[i]` holds the unordered-container variable names visible
/// to files[i] (own declarations plus transitive project includes) — the
/// same merged sets the per-file rule uses.
[[nodiscard]] std::vector<ProjectFinding> run_project_rules(
    const std::vector<FileIndex>& files, const CallGraph& graph,
    const std::vector<std::set<std::string>>& unordered_names);

}  // namespace uvmsim::lint
