#include "uvm/eviction_lru.h"

namespace uvmsim {

void LruEviction::on_block_allocated(VaBlockId b) {
  if (links_.contains(b)) {
    // Re-allocation of a tracked block: treat as a touch.
    promote(b);
    return;
  }
  links_.push_front(list_, b);
}

void LruEviction::on_block_touched(VaBlockId b) { promote(b); }

void LruEviction::promote(VaBlockId b) {
  if (!links_.contains(b)) return;
  if (list_.head != b) {
    links_.unlink(list_, b);
    links_.push_front(list_, b);
  }
  // A touched block is active again; let the next scan reclassify it.
  links_.set_flag(b, false);
}

void LruEviction::on_block_evicted(VaBlockId b) {
  if (links_.contains(b)) links_.unlink(list_, b);
}

std::optional<VaBlockId> LruEviction::pick_victim(
    const std::function<bool(VaBlockId)>& eligible) {
  // Scan from the LRU end for the first eligible block.
  last_scan_len_ = 0;
  for (std::uint32_t i = list_.tail; i != BlockLinks::kNil;
       i = links_.prev(i)) {
    ++last_scan_len_;
    if (eligible(i)) return i;
  }
  return std::nullopt;
}

std::optional<VaBlockId> LruEviction::pick_victim_classified(
    const std::function<VictimEligibility(VaBlockId)>& classify) {
  last_scan_len_ = 0;
  std::optional<VaBlockId> fallback;
  for (std::uint32_t i = list_.tail; i != BlockLinks::kNil;
       i = links_.prev(i)) {
    if (links_.flag(i)) continue;  // checked-ineligible earlier this round
    ++last_scan_len_;
    switch (classify(i)) {
      case VictimEligibility::Preferred:
        return i;
      case VictimEligibility::Eligible:
        if (!fallback) fallback = i;
        break;
      case VictimEligibility::Ineligible:
        if (in_round_) {
          // Mark in place — the block never moves, so LRU order stays exact
          // even if the round ends mid-scan with eligible blocks ahead.
          links_.set_flag(i, true);
          parked_.push_back(i);
        }
        break;
    }
  }
  return fallback;
}

void LruEviction::begin_victim_round() { in_round_ = true; }

void LruEviction::end_victim_round() {
  in_round_ = false;
  // Blocks were never moved; just clear the skip marks. A block evicted
  // mid-round lost its mark when it was unlinked, so clearing it again is a
  // harmless no-op.
  for (std::uint32_t i : parked_) links_.set_flag(i, false);
  parked_.clear();
}

}  // namespace uvmsim
