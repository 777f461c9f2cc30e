#include "uvm/prefetch_tree.h"

#include <algorithm>
#include <stdexcept>

namespace uvmsim {

PrefetchTree::PrefetchTree(const PageMask& occupied, std::uint32_t valid_pages)
    : valid_pages_(valid_pages) {
  if (valid_pages_ == 0 || valid_pages_ > kPagesPerBlock) {
    throw std::invalid_argument("PrefetchTree: invalid page count");
  }
  // Leaves.
  for (std::uint32_t i = 0; i < kPagesPerBlock; ++i) {
    counts_[node_index(kLevels - 1, i)] =
        (i < valid_pages_ && occupied.test(i)) ? 1 : 0;
  }
  // Inner nodes, bottom-up.
  for (std::uint32_t level = kLevels - 1; level > 0; --level) {
    std::uint32_t nodes = 1u << (level - 1);
    for (std::uint32_t i = 0; i < nodes; ++i) {
      counts_[node_index(level - 1, i)] =
          static_cast<std::uint16_t>(counts_[node_index(level, 2 * i)] +
                                     counts_[node_index(level, 2 * i + 1)]);
    }
  }
}

std::uint32_t PrefetchTree::count(std::uint32_t level,
                                  std::uint32_t index) const {
  return counts_[node_index(level, index)];
}

std::uint32_t PrefetchTree::valid(std::uint32_t level,
                                  std::uint32_t index) const {
  std::uint32_t width = kPagesPerBlock >> level;
  std::uint32_t lo = index * width;
  if (lo >= valid_pages_) return 0;
  return std::min(valid_pages_ - lo, width);
}

void PrefetchTree::saturate(std::uint32_t level, std::uint32_t idx) {
  // Set the chosen subtree (and everything below it) to its maximum valid
  // occupancy, then propagate the delta to ancestors.
  std::uint32_t before = counts_[node_index(level, idx)];
  std::uint32_t after = valid(level, idx);

  // Descendants: breadth-first fill.
  for (std::uint32_t l = level; l < kLevels; ++l) {
    std::uint32_t span = 1u << (l - level);
    std::uint32_t first = idx << (l - level);
    for (std::uint32_t k = 0; k < span; ++k) {
      counts_[node_index(l, first + k)] =
          static_cast<std::uint16_t>(valid(l, first + k));
    }
  }

  // Ancestors: add the delta.
  std::uint32_t delta = after - before;
  std::uint32_t l = level;
  std::uint32_t i = idx;
  while (l > 0) {
    --l;
    i >>= 1;
    counts_[node_index(l, i)] =
        static_cast<std::uint16_t>(counts_[node_index(l, i)] + delta);
  }
}

PageMask PrefetchTree::expand(std::uint32_t leaf,
                              std::uint32_t threshold_percent) {
  if (leaf >= valid_pages_) {
    throw std::invalid_argument("PrefetchTree::expand: leaf out of range");
  }
  // Walk from the root towards the leaf; the first subtree whose density
  // strictly exceeds the threshold is the largest qualifying one. The leaf
  // itself (occupied, density 100 %) is the fallback.
  std::uint32_t best_level = kLevels - 1;
  std::uint32_t best_idx = leaf;
  for (std::uint32_t level = 0; level < kLevels; ++level) {
    std::uint32_t idx = leaf >> (kLevels - 1 - level);
    std::uint32_t v = valid(level, idx);
    if (v == 0) continue;
    std::uint32_t c = counts_[node_index(level, idx)];
    // density% > threshold%  <=>  c * 100 > threshold * v
    if (c * 100u > threshold_percent * v) {
      best_level = level;
      best_idx = idx;
      break;  // first hit on the root->leaf walk == largest region
    }
  }

  PageMask region;
  std::uint32_t width = kPagesPerBlock >> best_level;
  std::uint32_t lo = best_idx * width;
  std::uint32_t hi = std::min(lo + width, valid_pages_);
  region.set_range(lo, hi);
  saturate(best_level, best_idx);
  return region;
}

}  // namespace uvmsim
