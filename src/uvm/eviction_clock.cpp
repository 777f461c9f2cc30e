#include "uvm/eviction_clock.h"

namespace uvmsim {

void ClockEviction::on_block_allocated(VaBlockId b) {
  if (links_.contains(b)) {
    // Re-allocation of a tracked block: count as a use.
    links_.set_flag(b, true);
    return;
  }
  // Fresh blocks start unreferenced, just behind the hand: examined last in
  // the current sweep.
  links_.insert_before(ring_, hand_, b);
  if (hand_ == BlockLinks::kNil) hand_ = static_cast<std::uint32_t>(b);
}

void ClockEviction::on_block_touched(VaBlockId b) {
  if (links_.contains(b)) links_.set_flag(b, true);
}

void ClockEviction::on_block_evicted(VaBlockId b) {
  if (!links_.contains(b)) return;
  if (hand_ == b) hand_ = ring_.size == 1 ? BlockLinks::kNil : after(hand_);
  links_.unlink(ring_, b);
}

std::optional<VaBlockId> ClockEviction::pick_victim(
    const std::function<bool(VaBlockId)>& eligible) {
  last_scan_len_ = 0;
  if (hand_ == BlockLinks::kNil) return std::nullopt;
  // Bounded sweep: one full revolution may clear every ref bit, a second
  // finds the first unreferenced eligible block; 2n visits suffice.
  const std::size_t limit = 2 * ring_.size;
  for (std::size_t visits = 0; visits < limit; ++visits) {
    const std::uint32_t i = hand_;
    ++last_scan_len_;
    hand_ = after(i);
    // Ineligible blocks keep their ref bit: being pinned or in-flight is
    // not a use, and the pin will clear by the next round.
    if (!eligible(i)) continue;
    if (!links_.flag(i)) return i;  // the sweep resumes past the victim
    links_.set_flag(i, false);      // second chance spent
  }
  return std::nullopt;
}

}  // namespace uvmsim
