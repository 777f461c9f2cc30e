#include "gpu/access_counters.h"

namespace uvmsim {

void AccessCounters::on_resident_access(VirtPage page, SimTime now) {
  if (!enabled_) return;
  VaBlockId blk = block_of_page(page);
  std::uint32_t bp = big_page_of(page_in_block(page));
  std::uint64_t key = blk * kBigPagesPerBlock + bp;
  std::uint32_t& c = counters_[key];
  if (++c < cfg_.threshold) return;
  c = 0;
  ++raised_;
  if (hazards_ != nullptr && hazards_->access_counter_lost(now)) {
    // Notification lost between the counter unit and the host-visible
    // queue; the region stays hot and will re-raise after more accesses.
    return;
  }
  if (queue_.size() >= cfg_.queue_capacity) {
    ++dropped_;
    return;
  }
  queue_.push_back(AccessCounterNotification{blk, bp, cfg_.threshold, now});
}

std::deque<AccessCounterNotification> AccessCounters::drain(std::size_t max_n) {
  std::deque<AccessCounterNotification> out;
  while (!queue_.empty() && out.size() < max_n) {
    out.push_back(queue_.front());
    queue_.pop_front();
  }
  return out;
}

}  // namespace uvmsim
