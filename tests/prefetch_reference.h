// Tree-building reference for the two-stage prefetcher: the paper's density
// tree (PrefetchTree) walked leaf by leaf. Prefetcher::compute_fast must
// return exactly what this returns for every input.
#pragma once

#include <algorithm>
#include <cstdint>

#include "mem/address_space.h"
#include "uvm/prefetch_tree.h"
#include "uvm/prefetcher.h"

namespace uvmsim {

/// Runs PrefetchTree::expand() over every faulted leaf in ascending order
/// and returns the union of the regions minus the pages already occupied
/// before the walk (only NEW pages to fetch).
inline PageMask tree_new_pages(const PageMask& occupied,
                               const PageMask& faulted,
                               std::uint32_t valid_pages,
                               std::uint32_t threshold_percent) {
  PrefetchTree tree(occupied, valid_pages);
  PageMask out;
  for (std::uint32_t leaf : faulted.set_bits()) {
    if (leaf >= valid_pages) continue;
    out |= tree.expand(leaf, threshold_percent);
  }
  return out.and_not(occupied);
}

/// Stage 1 (64 KB big-page upgrade) then stage 2 (density tree over
/// resident + faulted + upgraded occupancy), as Prefetcher::compute_fast.
inline Prefetcher::Result reference_prefetch(const VaBlock& block,
                                             const PageMask& faulted,
                                             bool big_page_upgrade,
                                             std::uint32_t threshold_percent) {
  Prefetcher::Result res;
  if (faulted.none() || block.num_pages == 0) return res;

  PageMask upgraded;
  if (big_page_upgrade) {
    for (std::uint32_t bp = 0; bp < kBigPagesPerBlock; ++bp) {
      std::uint32_t lo = bp * kPagesPerBigPage;
      std::uint32_t hi = std::min(lo + kPagesPerBigPage, block.num_pages);
      if (lo >= block.num_pages) break;
      if (faulted.count_range(lo, hi) > 0) upgraded.set_range(lo, hi);
    }
  }

  PageMask occupied = block.gpu_resident | faulted | upgraded;
  PageMask tree_out;
  if (threshold_percent <= 100) {
    tree_out = tree_new_pages(occupied, faulted, block.num_pages,
                              threshold_percent);
    res.tree_updates = faulted.count();
  }

  res.prefetch =
      (upgraded | tree_out).and_not(block.gpu_resident).and_not(faulted);
  return res;
}

}  // namespace uvmsim
