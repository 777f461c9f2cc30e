// Streaming multiprocessor bookkeeping: residency slots and the per-SM µTLB.
#pragma once

#include <cstdint>

#include "gpu/utlb.h"

namespace uvmsim {

struct Sm {
  std::uint32_t id = 0;
  std::uint32_t resident_blocks = 0;  ///< thread blocks currently resident
  Utlb utlb;

  /// The µTLB's live-bit table starts empty: GpuEngine::launch sizes it.
  explicit Sm(std::uint32_t sm_id, std::uint32_t utlb_entries)
      : id(sm_id), utlb(utlb_entries, 0) {}
};

}  // namespace uvmsim
