// Rule registry for uvmsim_lint.
//
// Rules are grouped by the invariant family they protect:
//   D (determinism)  — byte-identical output for a (seed, config) pair,
//                      independent of thread count and address layout;
//   C (concurrency)  — SweepRunner/ThreadPool tasks touch no unguarded
//                      shared mutable state and never print;
//   H (hygiene)      — headers stay self-contained and asserts side-effect
//                      free;
//   meta             — diagnostics about the suppression mechanism itself
//                      (never suppressible).
#pragma once

#include <string_view>
#include <vector>

namespace uvmsim::lint {

struct RuleInfo {
  std::string_view id;        ///< stable kebab-case id used in suppressions
  std::string_view category;  ///< "determinism", "hygiene", ...
  std::string_view summary;   ///< one-line description for --list-rules
};

/// All rules, in documentation order (D, C, H, meta).
[[nodiscard]] const std::vector<RuleInfo>& all_rules();

/// True if `id` names a rule (including meta rules).
[[nodiscard]] bool is_known_rule(std::string_view id);

/// True for rules about the suppression mechanism itself; these cannot be
/// suppressed.
[[nodiscard]] bool is_meta_rule(std::string_view id);

}  // namespace uvmsim::lint
