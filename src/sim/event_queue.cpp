#include "sim/event_queue.h"

#include "sim/annotations.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace uvmsim {

void EventQueue::reserve(std::size_t n) {
  heap_.reserve(n);
  slab_.reserve(n);
  free_slots_.reserve(n);
}

UVMSIM_HOT void EventQueue::push(SimTime when, std::uint64_t payload) {
  const HeapEntry e{when, next_seq_++, payload};
  if (root_fired_) {
    root_fired_ = false;
    replace_root(e);
    return;
  }
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

UVMSIM_HOT void EventQueue::replace_root(const HeapEntry& e) {
  // Floyd's sift-down: move the hole at the root down the earlier child to
  // a leaf, then sift `e` up from there. A new event is usually among the
  // latest, so it settles near the leaves and the climb is short.
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && Later{}(heap_[child], heap_[child + 1])) ++child;
    heap_[hole] = heap_[child];
    hole = child;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!Later{}(heap_[parent], e)) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void EventQueue::drop_fired_root() {
  if (!root_fired_) return;
  root_fired_ = false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

UVMSIM_HOT void EventQueue::schedule_at(SimTime when, Callback cb) {
  if (when < now_) {
    throw std::logic_error("EventQueue: scheduling into the past");
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(cb);
  }
  push(when, kCallbackBit | slot);
}

UVMSIM_HOT void EventQueue::schedule_step_in(SimDuration delay,
                                             std::uint64_t payload) {
  assert(payload < kCallbackBit);
  push(now_ + delay, payload);
}

UVMSIM_HOT bool EventQueue::step() {
  assert(!root_fired_);  // step() does not nest inside a step handler
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  now_ = top.when;
  ++executed_;
  if ((top.payload & kCallbackBit) == 0) {
    // Replace-top (see the header): push() overwrites the fired root.
    root_fired_ = true;
    try {
      step_fn_(step_ctx_, top.payload);
    } catch (...) {
      drop_fired_root();
      throw;
    }
    drop_fired_root();
    return true;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Move the callback out of the slab and recycle the slot *before* running
  // it: the callback may schedule new events that reuse the slot.
  const auto slot = static_cast<std::uint32_t>(top.payload);
  Callback cb = std::move(slab_[slot]);
  free_slots_.push_back(slot);
  cb();
  return true;
}

SimTime EventQueue::run() {
  while (step()) {
  }
  return now_;
}

}  // namespace uvmsim
