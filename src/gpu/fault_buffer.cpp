#include "gpu/fault_buffer.h"

#include <algorithm>

namespace uvmsim {

bool FaultBuffer::push(FaultEntry e, SimTime now) {
  if (full()) {
    ++dropped_;
    return false;
  }
  e.raised_at = now;
  e.ready_at = now + cfg_.ready_lag;
  bool duplicate = false;
  if (hazards_ != nullptr) {
    switch (hazards_->fb_corruption(now)) {
      case FbCorruption::Drop:
        // Entry lost in flight: to the GPU it looks exactly like a
        // buffer-full drop (the warp stays parked and re-faults on replay).
        ++dropped_;
        return false;
      case FbCorruption::Duplicate:
        duplicate = true;
        break;
      case FbCorruption::StallReady:
        e.ready_at += hazards_->config().fb_stall_extra;
        break;
      case FbCorruption::None:
        break;
    }
  }
  append(e);
  if (duplicate && !full()) append(e);
  return true;
}

bool FaultBuffer::push_preserving_timestamps(const FaultEntry& e) {
  if (full()) {
    ++dropped_;
    return false;
  }
  append(e);
  return true;
}

void FaultBuffer::append(const FaultEntry& e) {
  if (size_ == ring_.size()) {
    // Grow: unroll the ring into a larger one, oldest entry first.
    std::vector<FaultEntry> grown(std::min<std::size_t>(
        cfg_.capacity, std::max<std::size_t>(2 * ring_.size(), 16)));
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = ring_[(head_ + i) % ring_.size()];
    }
    ring_.swap(grown);
    head_ = 0;
  }
  ring_[(head_ + size_) % ring_.size()] = e;
  ++size_;
  ++pushed_;
  max_occupancy_ = std::max(max_occupancy_, size_);
}

std::optional<FaultEntry> FaultBuffer::pop() {
  if (size_ == 0) return std::nullopt;
  FaultEntry e = ring_[head_];
  head_ = (head_ + 1) % ring_.size();
  --size_;
  return e;
}

std::uint64_t FaultBuffer::flush() {
  std::uint64_t n = size_;
  flushed_ += n;
  head_ = 0;
  size_ = 0;
  return n;
}

}  // namespace uvmsim
