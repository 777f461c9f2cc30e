#include "uvm/eviction_2q.h"

#include <cassert>

namespace uvmsim {

TwoQEviction::TwoQEviction(unsigned protected_percent)
    : protected_percent_(protected_percent) {
  assert(protected_percent_ >= 1 && protected_percent_ <= 99);
}

std::uint32_t TwoQEviction::acquire_node() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    nodes_[idx] = Node{};
    return idx;
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void TwoQEviction::link_front(Segment& seg, std::uint32_t idx) {
  Node& n = nodes_[idx];
  n.prev = kNil;
  n.next = seg.head;
  if (seg.head != kNil) nodes_[seg.head].prev = idx;
  seg.head = idx;
  if (seg.tail == kNil) seg.tail = idx;
  ++seg.size;
}

void TwoQEviction::unlink(Segment& seg, std::uint32_t idx) {
  const Node& n = nodes_[idx];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    seg.head = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    seg.tail = n.prev;
  }
  --seg.size;
}

std::size_t TwoQEviction::protected_cap() const {
  const std::size_t cap = pos_.size() * protected_percent_ / 100;
  return cap == 0 ? 1 : cap;
}

void TwoQEviction::enforce_protected_cap() {
  const std::size_t cap = protected_cap();
  while (prot_.size > cap) {
    const std::uint32_t idx = prot_.tail;
    unlink(prot_, idx);
    nodes_[idx].is_protected = false;
    // Demoted slices re-enter probation at the MRU end: they proved useful
    // once, so they outlive never-touched prefetch spill in the scan order.
    link_front(prob_, idx);
  }
}

void TwoQEviction::on_slice_allocated(SliceKey k) {
  const auto [it, inserted] = pos_.try_emplace(k.packed(), kNil);
  if (!inserted) {
    // Re-allocation of a tracked slice: count as a use.
    on_slice_touched(k);
    return;
  }
  const std::uint32_t idx = acquire_node();
  nodes_[idx].key = k;
  it->second = idx;
  link_front(prob_, idx);
}

void TwoQEviction::on_slice_touched(SliceKey k) {
  const auto it = pos_.find(k.packed());
  if (it == pos_.end()) return;
  const std::uint32_t idx = it->second;
  unlink(segment_of(idx), idx);
  nodes_[idx].is_protected = true;
  link_front(prot_, idx);
  enforce_protected_cap();
}

void TwoQEviction::on_slice_evicted(SliceKey k) {
  const auto it = pos_.find(k.packed());
  if (it == pos_.end()) return;
  const std::uint32_t idx = it->second;
  unlink(segment_of(idx), idx);
  free_.push_back(idx);
  pos_.erase(it);
}

std::optional<SliceKey> TwoQEviction::pick_victim(
    const std::function<bool(SliceKey)>& eligible) {
  last_scan_len_ = 0;
  // Probation first — never-touched (or demoted-and-not-revalidated)
  // slices go before anything currently protected.
  for (std::uint32_t i = prob_.tail; i != kNil; i = nodes_[i].prev) {
    ++last_scan_len_;
    if (eligible(nodes_[i].key)) return nodes_[i].key;
  }
  for (std::uint32_t i = prot_.tail; i != kNil; i = nodes_[i].prev) {
    ++last_scan_len_;
    if (eligible(nodes_[i].key)) return nodes_[i].key;
  }
  return std::nullopt;
}

std::vector<std::pair<SliceKey, bool>> TwoQEviction::scan_order() const {
  std::vector<std::pair<SliceKey, bool>> out;
  out.reserve(pos_.size());
  for (std::uint32_t i = prob_.tail; i != kNil; i = nodes_[i].prev) {
    out.emplace_back(nodes_[i].key, false);
  }
  for (std::uint32_t i = prot_.tail; i != kNil; i = nodes_[i].prev) {
    out.emplace_back(nodes_[i].key, true);
  }
  return out;
}

}  // namespace uvmsim
