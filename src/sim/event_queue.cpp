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
  heap_.push_back(HeapEntry{when, next_seq_++, payload});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
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
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const HeapEntry e = heap_.back();
  heap_.pop_back();
  now_ = e.when;
  ++executed_;
  if ((e.payload & kCallbackBit) == 0) {
    step_fn_(step_ctx_, e.payload);
    return true;
  }
  // Move the callback out of the slab and recycle the slot *before* running
  // it: the callback may schedule new events that reuse the slot.
  const auto slot = static_cast<std::uint32_t>(e.payload);
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
