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
// Concurrency is confined to ThreadPool::parallel_for bodies (sweeps and
// campaigns run whole simulations side by side); one simulation's
// servicing is serial by design. In project mode lane-capture-escape
// checks that a parallel_for body writes no captured shared state unless
// it is index-partitioned or std::atomic.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define UVMSIM_HOT [[gnu::hot]]
#else
#define UVMSIM_HOT
#endif
