// The density ("tree-based") prefetcher core (paper §IV-A, Fig. 6).
//
// Each VABlock is conceptually a binary tree over its 512 sequential 4 KB
// pages: leaves are pages, and each inner node holds the number of leaves in
// its subtree that are occupied — GPU-resident, faulted in the current batch,
// or already flagged for prefetching. For every faulted leaf, the prefetch
// region is the LARGEST subtree containing it whose occupancy density
// exceeds the threshold (driver default 51 %). When a region is chosen, all
// of its nodes saturate to their maximum value, so a handful of scattered
// faults can cascade into fetching the entire block.
//
// Partial blocks (a range whose tail block has < 512 valid pages) compute
// density over valid leaves only, and never emit prefetches past the end of
// the range.
#pragma once

#include <cstdint>

#include "mem/page_mask.h"

namespace uvmsim {

class PrefetchTree {
 public:
  /// Number of levels: level 0 is the root (subtree size 512), level 9 the
  /// leaves (size 1). The paper counts the 9 edges/levels above the leaves.
  static constexpr std::uint32_t kLevels = 10;

  /// Builds the tree from the current occupancy (resident | faulted |
  /// already-marked prefetch) over `valid_pages` leaves.
  PrefetchTree(const PageMask& occupied, std::uint32_t valid_pages);

  /// Expands the prefetch region for one faulted leaf: returns the leaves of
  /// the largest subtree containing `leaf` whose density strictly exceeds
  /// `threshold_percent`, and saturates that subtree's counts (so later
  /// leaves in the same batch see the updated occupancy — the cascade).
  /// The returned mask includes only valid leaves and always contains
  /// `leaf` itself.
  PageMask expand(std::uint32_t leaf, std::uint32_t threshold_percent);

  /// Occupancy count of the subtree at (level, index).
  [[nodiscard]] std::uint32_t count(std::uint32_t level,
                                    std::uint32_t index) const;

  /// Valid leaves under the subtree at (level, index).
  [[nodiscard]] std::uint32_t valid(std::uint32_t level,
                                    std::uint32_t index) const;

 private:
  /// counts_ stores the full binary tree: level L occupies indices
  /// [2^L - 1, 2^(L+1) - 1), node width 512 >> L.
  static constexpr std::uint32_t kNodes = 2 * kPagesPerBlock - 1;  // 1023
  static constexpr std::uint32_t node_index(std::uint32_t level,
                                            std::uint32_t idx) {
    return (1u << level) - 1 + idx;
  }

  void saturate(std::uint32_t level, std::uint32_t idx);

  std::uint16_t counts_[kNodes];
  std::uint32_t valid_pages_;
};

}  // namespace uvmsim
