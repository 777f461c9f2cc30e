// The set of pages with an in-flight fault entry since the last replay.
//
// A flat open-addressed table with a fixed capacity chosen at construction:
// the engine inserts only when an SM fault slot is free and takes that slot,
// and replay() resets both, so the set never holds more than
// num_sms × utlb_fault_slots pages. The capacity is at least twice that
// bound, so probes stay short and an insert never needs to grow the table.
// clear() walks only the slots used since the previous clear.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mem/constants.h"

namespace uvmsim {

class PendingFaultSet {
 public:
  explicit PendingFaultSet(std::uint64_t max_entries)
      : max_entries_(max_entries),
        keys_(std::bit_ceil(std::max<std::uint64_t>(2 * max_entries, 2)),
              kEmpty),
        mask_(keys_.size() - 1),
        shift_(64 - std::countr_zero(keys_.size())) {
    used_.reserve(max_entries);
  }

  [[nodiscard]] bool contains(VirtPage p) const {
    for (std::size_t i = home(p);; i = (i + 1) & mask_) {
      if (keys_[i] == p) return true;
      if (keys_[i] == kEmpty) return false;
    }
  }

  /// Adds `p`, which must not be present yet.
  void insert(VirtPage p) {
    if (used_.size() == max_entries_) {
      throw std::logic_error("PendingFaultSet: more entries than fault slots");
    }
    std::size_t i = home(p);
    while (keys_[i] != kEmpty) i = (i + 1) & mask_;
    keys_[i] = p;
    used_.push_back(i);
  }

  void clear() {
    for (std::size_t i : used_) keys_[i] = kEmpty;
    used_.clear();
  }

 private:
  static constexpr VirtPage kEmpty = ~VirtPage{0};
  [[nodiscard]] std::size_t home(VirtPage p) const {
    return static_cast<std::size_t>((p * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::uint64_t max_entries_;
  std::vector<VirtPage> keys_;
  std::size_t mask_;
  int shift_;
  std::vector<std::size_t> used_;  ///< occupied slot indices
};

}  // namespace uvmsim
