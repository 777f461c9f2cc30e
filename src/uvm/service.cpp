#include "uvm/service.h"

#include <algorithm>

#include "mem/constants.h"
#include "sim/annotations.h"

namespace uvmsim {

std::vector<std::uint64_t> runs_to_bytes(
    const std::vector<PageMask::Run>& runs) {
  std::vector<std::uint64_t> out;
  out.reserve(runs.size());
  for (const auto& r : runs) {
    out.push_back(static_cast<std::uint64_t>(r.count) * kPageSize);
  }
  return out;
}

std::vector<std::uint64_t> runs_to_bytes(const PageMask& mask) {
  std::vector<std::uint64_t> out;
  mask.for_each_run([&out](PageMask::Run r) {
    out.push_back(static_cast<std::uint64_t>(r.count) * kPageSize);
  });
  return out;
}

UVMSIM_HOT PageMask slice_mask(std::uint32_t slice,
                               std::uint32_t pages_per_slice,
                               std::uint32_t num_pages) {
  PageMask m;
  std::uint32_t lo = slice * pages_per_slice;
  std::uint32_t hi = std::min(lo + pages_per_slice, num_pages);
  if (lo < hi) m.set_range(lo, hi);
  return m;
}

UVMSIM_HOT std::vector<std::uint32_t> touched_slices(
    const PageMask& mask, std::uint32_t pages_per_slice) {
  // uvmsim-lint: allow(hot-local-container, "one list per chunk-backing plan, at most kBigPagesPerBlock entries")
  std::vector<std::uint32_t> out;
  std::uint32_t prev = ~0u;
  for (std::uint32_t i : mask.set_bits()) {
    std::uint32_t s = i / pages_per_slice;
    if (s != prev) {
      out.push_back(s);
      prev = s;
    }
  }
  return out;
}

}  // namespace uvmsim
