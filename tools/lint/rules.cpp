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
      {"unordered-iteration", "determinism",
       "range-for over an unordered container; iteration order depends on "
       "hashing/address layout — iterate a sorted view instead (per-file "
       "mode only; --project supersedes it with unordered-sink-iteration)"},
      {"unordered-sink-iteration", "determinism",
       "range-for over an unordered container whose body prints or calls "
       "code that transitively can; hash order would leak into output "
       "(--project replacement for unordered-iteration)"},
      {"pointer-keyed-container", "determinism",
       "std::map/std::set keyed by a raw pointer; ordering follows the "
       "allocator and varies run to run — key by a stable id"},
      {"thread-id", "determinism",
       "std::this_thread::get_id() in product code; results must not depend "
       "on which pool worker ran a task"},
      // -- A: hot-path allocation -------------------------------------------
      {"hot-alloc", "allocation",
       "new/make_unique/make_shared/malloc inside a UVMSIM_HOT function; the "
       "schedule->fire and service paths must not heap-allocate"},
      {"hot-local-container", "allocation",
       "allocating std:: container named inside a UVMSIM_HOT function; use "
       "preallocated members or spans"},
      {"hot-transitive-alloc", "allocation",
       "heap allocation in code transitively callable from a UVMSIM_HOT "
       "function; reported with the call chain (--project only)"},
      {"hot-transitive-io", "allocation",
       "I/O in code transitively callable from a UVMSIM_HOT function "
       "(--project only)"},
      {"hot-transitive-clock", "determinism",
       "wall-clock read in code transitively callable from a UVMSIM_HOT "
       "function (--project only)"},
      {"hot-transitive-random", "determinism",
       "nondeterministic RNG in code transitively callable from a "
       "UVMSIM_HOT function (--project only)"},
      // -- C: concurrency ----------------------------------------------------
      {"mutable-static", "concurrency",
       "non-const, non-atomic static; shared mutable state is reachable from "
       "SweepRunner/ThreadPool tasks — make it const/atomic or guard it"},
      {"task-io", "concurrency",
       "stdout/stderr from a lambda passed to ThreadPool::submit/parallel_for "
       "or SweepRunner::map/sweep; tasks collect, the caller prints (keeps "
       "sweep stdout byte-identical for any UVMSIM_THREADS)"},
      {"task-shared-state", "concurrency",
       "Tracer/Profiler touched from a pool task; per-run instances owned by "
       "the task are fine — document that with a typed suppression"},
      {"lane-capture-escape", "concurrency",
       "by-reference capture (or captured member state) mutated inside a "
       "parallel_for body without being indexed by a body-local or "
       "std::atomic; concurrent chunks would race on it (--project only)"},
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
