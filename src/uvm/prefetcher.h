// Two-stage UVM prefetcher (paper §IV-A).
//
// Stage 1 ("big page upgrade"): every faulted 4 KB page is upgraded to its
// 64 KB-aligned big page, satisfying local spatial locality and emulating
// Power9 page sizes on x86.
//
// Stage 2 ("density prefetcher"): the 9-level tree over the VABlock expands
// each faulted leaf to the largest subtree whose occupancy exceeds the
// threshold (see prefetch_tree.h).
//
// The prefetcher is invoked once per VABlock with at least one faulted page
// in the batch, and only proposes pages that are valid and not already
// resident or faulted.
#pragma once

#include <cstdint>

#include "mem/address_space.h"
#include "mem/page_mask.h"
#include "uvm/driver_config.h"

namespace uvmsim {

class Prefetcher {
 public:
  struct Result {
    /// New pages to migrate purely due to prefetching (excludes resident and
    /// faulted pages).
    PageMask prefetch;
    /// Faulted leaves processed (for cost accounting).
    std::uint32_t tree_updates = 0;
  };

  /// Computes the prefetch set for `block` given the batch's non-duplicate
  /// faulted pages `faulted` (all within the block, non-resident).
  /// `threshold_percent` > 100 disables stage 2 (stage 1 still applies when
  /// big_page_upgrade is set — matching the driver, where the upgrade is
  /// part of the fault-service path, not the density logic).
  ///
  /// Word-level, without materializing the 1023-node PrefetchTree: one
  /// pass over the eight mask words builds the upgraded occupancy and its
  /// per-word popcounts; the walk answers regions of 64 pages or more from
  /// those counts and narrower ones with one masked popcount, and an
  /// expansion refreshes only the words it saturated. Allocation-free.
  /// prefetcher_test checks it against a reference built on
  /// PrefetchTree::expand().
  static Result compute_fast(const VaBlock& block, const PageMask& faulted,
                             bool big_page_upgrade,
                             std::uint32_t threshold_percent);
};

}  // namespace uvmsim
