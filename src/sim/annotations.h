// Function and variable annotations shared across the simulator.
//
// UVMSIM_HOT marks functions on the per-fault / per-event critical path. It
// is only a compiler hint.
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
