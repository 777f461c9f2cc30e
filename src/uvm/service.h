// Small pure helpers shared by the fault-service and eviction paths.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/page_mask.h"

namespace uvmsim {

/// Converts the mask's contiguous page runs to per-run byte sizes (one DMA
/// op each).
[[nodiscard]] std::vector<std::uint64_t> runs_to_bytes(const PageMask& mask);

}  // namespace uvmsim
