// Discrete-event scheduler.
//
// The simulator is driven by a single EventQueue: actors (GPU engine, UVM
// driver, DMA engine) schedule events at future simulated times, and
// EventQueue::run() executes them in timestamp order, advancing the simulated
// clock. Events with equal timestamps execute in scheduling (FIFO) order so
// runs are fully deterministic.
//
// Hot-path layout: an event is keyed by its timestamp and a FIFO sequence
// number, compared as one 128-bit `(when, seq)` key, and is one of two kinds:
//   * a typed step: a dense 32-bit id handed to the queue's one step
//     handler. Warp steps, about 98% of all events, are these. Each id has
//     at most one pending step, so steps live in a winner tree with one
//     leaf per id: scheduling id i writes leaf i's key and replays the
//     fixed path from that leaf to the root.
//   * a callback: a std::function in a slab slot, ordered by a binary heap
//     of 24-byte plain entries. The rare driver and dispatch events are
//     these. Firing one *moves* the callback out of the slab, so the
//     schedule->fire path performs no per-event heap allocation once the
//     slab and heap storage are warm (for callbacks small enough for
//     std::function's inline buffer; the simulator's are all one- or
//     two-pointer captures).
// Both kinds draw their sequence numbers from one counter, and step() fires
// the earlier of the tree's root and the heap's top, so they interleave in
// (when, seq) order. An event cannot be cancelled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace uvmsim {

/// A deterministic single-threaded discrete-event queue.
///
/// Invariants:
///  * now() is monotonically non-decreasing across event executions.
///  * Scheduling into the past is a programming error and throws.
///  * Two events at the same timestamp run in the order they were scheduled,
///    whatever their kind.
class EventQueue {
 public:
  using Callback = std::function<void()>;
  /// Receives a typed step's id; `ctx` is the pointer registered with the
  /// handler.
  using StepHandler = void (*)(void* ctx, std::uint32_t id);

  EventQueue() { grow_steps(1); }

  /// Current simulated time. Outside run() this is the time of the last
  /// executed event (or 0 before any event ran).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` to run at absolute time `when` (>= now()).
  void schedule_at(SimTime when, Callback cb);

  /// Schedules `cb` to run `delay` after the current time.
  void schedule_in(SimDuration delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  /// Installs the handler every typed step is delivered to. A queue has one
  /// handler; it must be set before the first typed step fires.
  void set_step_handler(StepHandler fn, void* ctx) {
    step_fn_ = fn;
    step_ctx_ = ctx;
  }

  /// Schedules typed step `id` `delay` after the current time. Ids are
  /// dense: the tree keeps a leaf for every id up to the largest one seen.
  /// An id has at most one pending step; scheduling a pending id throws
  /// std::logic_error. A fired id is no longer pending, so its handler may
  /// schedule it again.
  void schedule_step_in(SimDuration delay, std::uint32_t id);

  /// Runs events until the queue is empty. Returns the final simulated time.
  SimTime run();

  /// Executes a single event if one is pending. Returns false if empty.
  bool step();

  /// Number of events still pending (a firing step is no longer pending).
  [[nodiscard]] std::size_t pending_events() const {
    return heap_.size() + pending_steps_;
  }

  /// True when no events remain.
  [[nodiscard]] bool empty() const { return pending_events() == 0; }

  /// Total number of events executed so far.
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Pre-sizes the heap and slab for `n` concurrently pending callbacks and
  /// the tree for step ids below `n`, so the schedule path doesn't
  /// reallocate while warming up.
  /// Test seam: the event_queue_alloc_test warm-up.
  void reserve(std::size_t n);

 private:
  /// An event's `(when, seq)` as one integer: comparisons then compile to
  /// two-word compares and conditional moves, where a two-step comparison
  /// branched unpredictably.
  using Key = __uint128_t;
  /// A leaf with no pending step; later than every real key.
  static constexpr Key kIdle = ~Key{0};
  /// No step fired and awaiting its path replay.
  static constexpr std::uint32_t kNone = ~0U;
  static Key key_of(SimTime when, std::uint64_t seq) {
    return (Key{when} << 64) | seq;
  }

  // Callback heap node: 24 bytes, trivially movable, so push_heap/pop_heap
  // sift cheaply.
  struct HeapEntry {
    SimTime when = 0;
    std::uint64_t seq = 0;  // FIFO tiebreak for equal timestamps
    std::uint32_t slot = 0;  // the callback's slab slot
  };
  // "Later-than" comparator: std::push_heap builds a max-heap, so the
  // earliest (when, seq) ends up at the front.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return key_of(a.when, a.seq) > key_of(b.when, b.seq);
    }
  };

  /// Grows the tree to at least `ids` leaves (a power of two) and rebuilds
  /// it from the leaf keys.
  void grow_steps(std::size_t ids);
  /// Recomputes the winners on the path from leaf `id` to the root.
  void replay_path(std::uint32_t id);

  /// Per step id, the key of its pending step, or kIdle.
  std::vector<Key> keys_;
  /// The winner tree over `leaves_` leaves: node k (1 <= k < leaves_)
  /// holds the id with the earliest key below it, and tree_[leaves_ + i]
  /// is leaf i itself, so tree_[1] names the earliest pending step (or an
  /// idle leaf). A path replay reads each sibling at a fixed index, so its
  /// loads never wait on its comparisons.
  std::vector<std::uint32_t> tree_;
  std::size_t leaves_ = 0;
  std::size_t pending_steps_ = 0;
  /// The last fired step if its leaf went idle and its path still names
  /// it; the next step() replays that path unless a schedule did first.
  /// Until then only nodes on that path can be stale.
  std::uint32_t fired_ = kNone;

  std::vector<HeapEntry> heap_;
  std::vector<Callback> slab_;
  std::vector<std::uint32_t> free_slots_;
  StepHandler step_fn_ = nullptr;
  void* step_ctx_ = nullptr;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace uvmsim
