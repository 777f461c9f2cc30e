#include "rules.h"

namespace uvmsim::lint {

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> kRules = {
      // -- D: determinism ----------------------------------------------------
      {"banned-random", "determinism",
       "std::rand/random_device/mt19937/... outside sim/rng.*; all "
       "randomness must flow through the seeded, splittable uvmsim::Rng"},
      {"banned-clock", "determinism",
       "time()/system_clock (everywhere) and steady_clock/"
       "high_resolution_clock outside sim/trace.* and bench/; simulated "
       "time comes from sim/time.h"},
      {"banned-io", "determinism",
       "cout/printf/fopen/ofstream/... outside bench/, tools/, src/campaign/, "
       "core/report.cpp and core/env.h; simulation code returns results "
       "and only the output modules print"},
      {"unordered-iteration", "determinism",
       "range-for over an unordered container; iteration order depends on "
       "hashing/address layout — iterate a sorted view instead"},
      {"pointer-keyed-container", "determinism",
       "std::map/std::set keyed by a raw pointer; ordering follows the "
       "allocator and varies run to run — key by a stable id"},
      {"thread-id", "determinism",
       "std::this_thread::get_id() in product code; results must not depend "
       "on which pool worker ran a task"},
      // -- C: concurrency ----------------------------------------------------
      {"mutable-static", "concurrency",
       "non-const, non-atomic static; shared mutable state is reachable from "
       "SweepRunner/ThreadPool tasks — make it const/atomic or guard it"},
      {"task-io", "concurrency",
       "stdout/stderr from a lambda passed to ThreadPool::submit or "
       "SweepRunner::map/sweep; tasks collect, the caller prints (keeps "
       "sweep stdout byte-identical for any UVMSIM_THREADS)"},
      {"task-shared-state", "concurrency",
       "Tracer/Profiler touched from a pool task; per-run instances owned by "
       "the task are fine — document that with a typed suppression"},
      // -- H: hygiene --------------------------------------------------------
      {"using-namespace-header", "hygiene",
       "using namespace at header scope leaks into every includer"},
      {"assert-side-effect", "hygiene",
       "assert() argument contains ++/--/assignment; NDEBUG builds would "
       "change behavior"},
      {"missing-include", "hygiene",
       "header uses a std:: name without directly including the header that "
       "provides it (include-what-you-use lite)"},
      {"missing-pragma-once", "hygiene",
       "header has neither #pragma once nor an include guard"},
      {"include-cycle", "hygiene",
       "project headers include each other in a cycle"},
      // -- meta --------------------------------------------------------------
      {"suppression-unknown-rule", "meta",
       "uvmsim-lint: allow(...) names a rule id that does not exist"},
      {"suppression-missing-justification", "meta",
       "uvmsim-lint: allow(...) lacks the mandatory justification string"},
  };
  return kRules;
}

bool is_known_rule(std::string_view id) {
  for (const RuleInfo& r : all_rules()) {
    if (r.id == id) return true;
  }
  return false;
}

bool is_meta_rule(std::string_view id) {
  return id == "suppression-unknown-rule" ||
         id == "suppression-missing-justification";
}

}  // namespace uvmsim::lint
