// Volta-style memory access counters (paper §VI-B, [27]).
//
// Since Volta, the GPU can count accesses to memory regions and notify the
// host when a region's counter crosses a threshold. The stock driver does not
// use them; the paper proposes them as the missing signal for eviction (LRU
// only sees faults, so resident-hot data decays to the LRU tail). The
// simulator implements the hardware side here and an eviction policy that
// consumes the notifications in uvm/access_counter_eviction.h.
//
// Counters operate at big-page (64 KB) granularity, counting *resident*
// (non-faulting) accesses — exactly the accesses the fault path cannot see.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include "mem/constants.h"
#include "sim/hazards.h"
#include "sim/time.h"

namespace uvmsim {

/// Notification pushed to the host when a region's counter saturates.
struct AccessCounterNotification {
  VaBlockId block = 0;
  std::uint32_t big_page = 0;  ///< big-page index within the block [0,32)
  std::uint32_t count = 0;     ///< counter value at notification
  SimTime at = 0;
};

class AccessCounters {
 public:
  struct Config {
    /// Counter value that triggers a notification (then the counter clears).
    std::uint32_t threshold = 256;
    /// Maximum queued notifications (hardware buffer); overflow drops.
    std::uint32_t queue_capacity = 1024;
  };

  /// Disabled counters never count or notify. The Simulator enables them
  /// exactly when the driver consumes notifications (access-counter
  /// eviction or access-counter migration).
  AccessCounters(const Config& cfg, bool enabled)
      : cfg_(cfg), enabled_(enabled) {}

  /// Records a resident (non-faulting) access to `page` at time `now`.
  void on_resident_access(VirtPage page, SimTime now);

  /// Driver side: drains up to `max_n` notifications.
  std::deque<AccessCounterNotification> drain(std::size_t max_n);

  /// Attaches the hazard injector (null = notifications never get lost).
  void set_hazard_injector(HazardInjector* h) { hazards_ = h; }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint64_t notifications_raised() const { return raised_; }
  [[nodiscard]] std::uint64_t notifications_dropped() const { return dropped_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  Config cfg_;
  bool enabled_;
  HazardInjector* hazards_ = nullptr;
  /// key = block * 32 + big_page
  std::unordered_map<std::uint64_t, std::uint32_t> counters_;
  std::deque<AccessCounterNotification> queue_;
  std::uint64_t raised_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace uvmsim
