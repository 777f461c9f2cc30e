// Function and variable annotations shared across the simulator.
//
// UVMSIM_HOT marks functions on the per-fault / per-event critical path.
// Besides the compiler hint, the marker is load-bearing for tooling:
// uvmsim_lint forbids heap allocation (hot-alloc) and local container
// construction (hot-local-container) inside UVMSIM_HOT bodies, and in
// project mode (--project) extends the ban transitively: anything
// reachable from a UVMSIM_HOT entry through the call graph must not
// allocate, do I/O, read clocks, or draw randomness
// (hot-transitive-{alloc,io,clock,random}).
//
// UVMSIM_ALWAYS_INLINE forces a per-lane helper into its hot callers, where
// the compiler's size heuristics would leave a call per lane.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define UVMSIM_HOT [[gnu::hot]]
#define UVMSIM_ALWAYS_INLINE [[gnu::always_inline]]
#else
#define UVMSIM_HOT
#define UVMSIM_ALWAYS_INLINE
#endif
