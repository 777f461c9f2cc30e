#include "sim/event_queue.h"

#include "sim/annotations.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace uvmsim {

void EventQueue::reserve(std::size_t n) {
  heap_.reserve(n);
  slab_.reserve(n);
  free_slots_.reserve(n);
  grow_steps(n);
}

void EventQueue::grow_steps(std::size_t ids) {
  const std::size_t leaves = std::bit_ceil(std::max<std::size_t>(ids, 1));
  if (leaves <= leaves_) return;
  leaves_ = leaves;
  keys_.resize(leaves, kIdle);
  tree_.assign(2 * leaves, 0);
  for (std::size_t i = 0; i < leaves; ++i) {
    tree_[leaves + i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t k = leaves - 1; k > 0; --k) {
    const std::uint32_t a = tree_[2 * k];
    const std::uint32_t b = tree_[(2 * k) + 1];
    tree_[k] = keys_[b] < keys_[a] ? b : a;
  }
}

UVMSIM_HOT void EventQueue::replay_path(std::uint32_t id) {
  std::uint32_t* const tree = tree_.data();
  const Key* const keys = keys_.data();
  std::uint32_t win = id;
  Key win_key = keys[id];
  for (std::size_t pos = leaves_ + id; pos > 1; pos /= 2) {
    const std::uint32_t other = tree[pos ^ 1];
    const Key other_key = keys[other];
    if (other_key < win_key) {
      win = other;
      win_key = other_key;
    }
    tree[pos / 2] = win;
  }
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
  heap_.push_back(HeapEntry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

UVMSIM_HOT void EventQueue::schedule_step_in(SimDuration delay,
                                             std::uint32_t id) {
  if (id >= leaves_) grow_steps(std::size_t{id} + 1);
  Key& key = keys_[id];
  if (key != kIdle) {
    throw std::logic_error("EventQueue: step id already pending");
  }
  key = key_of(now_ + delay, next_seq_++);
  ++pending_steps_;
  // Replaying this path also settles the fired step's if `id` is it.
  if (id == fired_) fired_ = kNone;
  replay_path(id);
}

UVMSIM_HOT bool EventQueue::step() {
  if (fired_ != kNone) {
    replay_path(fired_);  // its handler did not schedule it again
    fired_ = kNone;
  }
  const std::uint32_t id = tree_[1];
  const Key step_key = keys_[id];
  if (heap_.empty() ||
      step_key < key_of(heap_.front().when, heap_.front().seq)) {
    if (step_key == kIdle) return false;
    now_ = static_cast<SimTime>(step_key >> 64);
    ++executed_;
    // The leaf goes idle now, so the handler may schedule `id` again; its
    // path is replayed then, or by the next step().
    keys_[id] = kIdle;
    --pending_steps_;
    fired_ = id;
    step_fn_(step_ctx_, id);
    return true;
  }
  const HeapEntry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  now_ = top.when;
  ++executed_;
  // Move the callback out of the slab and recycle the slot *before* running
  // it: the callback may schedule new events that reuse the slot.
  Callback cb = std::move(slab_[top.slot]);
  free_slots_.push_back(top.slot);
  cb();
  return true;
}

SimTime EventQueue::run() {
  while (step()) {
  }
  return now_;
}

}  // namespace uvmsim
