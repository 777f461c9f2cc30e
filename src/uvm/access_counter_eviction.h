// Access-counter-aware eviction (paper §VI-B, "GPU memory access-aware
// eviction").
//
// Extends the stock LRU with the signal it is missing: Volta-style access
// counters report *non-faulting* accesses, so resident-hot blocks get
// promoted back to the MRU end instead of decaying to the tail. This is the
// policy the paper sketches (and Ganguly et al. [4] simulate) but NVIDIA's
// driver does not implement.
#pragma once

#include "uvm/eviction_lru.h"

namespace uvmsim {

class AccessCounterEviction : public LruEviction {
 public:
  /// Promotes the block containing the notified big page.
  void on_access_notification(const AccessCounterNotification& n) override {
    promote(n.block);
  }

  [[nodiscard]] const char* name() const override { return "access_counter"; }
};

}  // namespace uvmsim
