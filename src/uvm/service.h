// Small pure helpers shared by the fault-service and eviction paths.
#pragma once

#include <cstdint>
#include <span>

#include "mem/page_mask.h"

namespace uvmsim {

/// The per-run byte sizes of one VABlock mask (one DMA op each), held
/// inline: a 512-page mask has at most 256 maximal runs (alternating
/// pages), so the list never allocates. Converts to the
/// std::span<const std::uint64_t> DmaEngine::copy_runs takes.
class RunBytes {
 public:
  static constexpr std::uint32_t kMaxRuns = PageMask::kBits / 2;

  [[nodiscard]] std::uint32_t size() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] std::uint64_t operator[](std::uint32_t i) const {
    return bytes_[i];
  }
  operator std::span<const std::uint64_t>() const { return {bytes_, n_}; }

 private:
  friend RunBytes runs_to_bytes(const PageMask& mask);
  RunBytes() = default;

  std::uint64_t bytes_[kMaxRuns];  // only [0, n_) is ever written or read
  std::uint32_t n_ = 0;
};

/// Converts the mask's contiguous page runs to per-run byte sizes.
[[nodiscard]] RunBytes runs_to_bytes(const PageMask& mask);

}  // namespace uvmsim
