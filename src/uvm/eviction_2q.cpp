#include "uvm/eviction_2q.h"

#include <algorithm>
#include <initializer_list>

namespace uvmsim {

void TwoQEviction::on_block_allocated(VaBlockId b) {
  if (links_.contains(b)) {
    // Re-allocation of a tracked block: count as a use.
    on_block_touched(b);
    return;
  }
  links_.push_front(prob_, b);
}

void TwoQEviction::on_block_touched(VaBlockId b) {
  if (!links_.contains(b)) return;
  links_.unlink(segment_of(b), b);
  links_.push_front(prot_, b);
  links_.set_flag(b, true);
  // Demote protected LRU blocks until the segment fits its cap. Demoted
  // blocks re-enter probation at the MRU end: they proved useful once, so
  // they outlive never-touched prefetch spill in the scan order.
  const std::size_t cap =
      std::max<std::size_t>(1, tracked() * kProtectedPercent / 100);
  while (prot_.size > cap) {
    const std::uint32_t lru = prot_.tail;
    links_.unlink(prot_, lru);
    links_.push_front(prob_, lru);
  }
}

void TwoQEviction::on_block_evicted(VaBlockId b) {
  if (links_.contains(b)) links_.unlink(segment_of(b), b);
}

std::optional<VaBlockId> TwoQEviction::pick_victim(
    const std::function<bool(VaBlockId)>& eligible) {
  last_scan_len_ = 0;
  // Probation first — never-touched (or demoted-and-not-revalidated)
  // blocks go before anything currently protected.
  for (const BlockLinks::List* seg : {&prob_, &prot_}) {
    for (std::uint32_t i = seg->tail; i != BlockLinks::kNil;
         i = links_.prev(i)) {
      ++last_scan_len_;
      if (eligible(i)) return i;
    }
  }
  return std::nullopt;
}

}  // namespace uvmsim
