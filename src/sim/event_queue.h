// Discrete-event scheduler.
//
// The simulator is driven by a single EventQueue: actors (GPU engine, UVM
// driver, DMA engine) schedule events at future simulated times, and
// EventQueue::run() executes them in timestamp order, advancing the simulated
// clock. Events with equal timestamps execute in scheduling (FIFO) order so
// runs are fully deterministic.
//
// Hot-path layout: the queue owns a binary heap of 24-byte plain entries
// (timestamp, FIFO sequence, payload) ordered with push_heap/pop_heap. An
// event is one of two kinds:
//   * a typed step: the payload is an opaque 63-bit word handed to the
//     queue's one step handler. Warp steps, about 98% of all events, are
//     these; they need no storage beyond the heap entry.
//   * a callback: the payload names a slot in a slab of std::function
//     records. The rare driver and dispatch events are these. Firing one
//     *moves* the callback out of the slab, so the schedule->fire path
//     performs no per-event heap allocation once the slab and heap storage
//     are warm (for callbacks small enough for std::function's inline buffer;
//     the simulator's are all one- or two-pointer captures).
// Both kinds draw their sequence numbers from one counter, so they
// interleave in (when, seq) order. An event cannot be cancelled.
//
// Replace-top: a warp step almost always schedules the warp's next step.
// So a fired typed step stays at the heap root while its handler runs, and
// the handler's first schedule overwrites the root and sifts down once,
// instead of a pop_heap and a push_heap. If the handler schedules nothing,
// the root is popped when it returns. The fired entry is the minimum, so
// the heap stays valid throughout; (when, seq) keys are unique, so any
// valid heap pops the same order, and pending_events()/empty() leave the
// fired entry out.
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
  /// Receives a typed step's payload; `ctx` is the pointer registered with
  /// the handler.
  using StepHandler = void (*)(void* ctx, std::uint64_t payload);

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

  /// Schedules a typed step carrying `payload` (< 2^63) `delay` after the
  /// current time.
  void schedule_step_in(SimDuration delay, std::uint64_t payload);

  /// Runs events until the queue is empty. Returns the final simulated time.
  SimTime run();

  /// Executes a single event if one is pending. Returns false if empty.
  bool step();

  /// Number of events still pending (a firing step is no longer pending).
  [[nodiscard]] std::size_t pending_events() const {
    return heap_.size() - (root_fired_ ? 1 : 0);
  }

  /// True when no events remain.
  [[nodiscard]] bool empty() const { return pending_events() == 0; }

  /// Total number of events executed so far.
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Pre-sizes the heap and slab for `n` concurrently pending events so the
  /// schedule path doesn't reallocate while warming up.
  /// Test seam: the event_queue_alloc_test warm-up.
  void reserve(std::size_t n);

 private:
  /// Set in a callback event's payload; the low 32 bits are its slab slot.
  static constexpr std::uint64_t kCallbackBit = 1ULL << 63;

  // Heap node: 24 bytes, trivially movable, so push_heap/pop_heap sift
  // cheaply.
  struct HeapEntry {
    SimTime when = 0;
    std::uint64_t seq = 0;  // FIFO tiebreak for equal timestamps
    std::uint64_t payload = 0;
  };
  // "Later-than" comparator: std::push_heap builds a max-heap, so the
  // earliest (when, seq) ends up at the front. It compares the pair as one
  // 128-bit key: a sift's pick of the earlier child then compiles to a
  // conditional move, where a two-step comparison branched unpredictably.
  struct Later {
    using Key = __uint128_t;
    static Key key(const HeapEntry& e) {
      return (Key{e.when} << 64) | e.seq;
    }
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return key(a) > key(b);
    }
  };

  void push(SimTime when, std::uint64_t payload);
  /// Overwrites the fired root with `e` and restores the heap order.
  void replace_root(const HeapEntry& e);
  /// Pops the fired root if no schedule has replaced it.
  void drop_fired_root();

  std::vector<HeapEntry> heap_;
  std::vector<Callback> slab_;
  std::vector<std::uint32_t> free_slots_;
  /// True while a typed step's handler runs and its entry, already fired,
  /// still sits at heap_[0].
  bool root_fired_ = false;
  StepHandler step_fn_ = nullptr;
  void* step_ctx_ = nullptr;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace uvmsim
