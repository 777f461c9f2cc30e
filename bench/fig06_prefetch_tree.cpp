// Figure 6 reproduction: a concrete walk-through of the density-prefetcher
// tree on one VABlock, showing per-fault region expansion and the cascade
// that fetches the whole block from five well-placed faults (§IV-A).
#include <iostream>

#include "core/report.h"
#include "mem/address_space.h"
#include "uvm/prefetch_tree.h"
#include "uvm/prefetcher.h"

int main() {
  using namespace uvmsim;

  std::cout << "Fig. 6 — density prefetch tree walk-through\n"
            << "VABlock: 512 x 4 KB pages, 9 tree levels, threshold 51 %\n";

  // Scenario A: the paper's figure — scattered occupancy, one more fault
  // tips a subtree past 51 %.
  {
    PageMask occupied;
    occupied.set_range(16, 25);  // 9 of 16 leaves of big page 1: 56 %
    PrefetchTree tree(occupied, kPagesPerBlock);
    PageMask region = tree.expand(20, 51);
    Table t({"step", "faulted_leaf", "region_pages"});
    t.add_row({"A1", "20", fmt(static_cast<std::uint64_t>(region.count()))});
    t.print("scenario A: fault inside a 56 %-occupied 16-leaf subtree");
    shape_check("region expands to the full 16-leaf subtree",
                region.count() == 16);
  }

  // Scenario B: cascade across successive fault batches — residency from
  // earlier prefetches counts toward density, so scattered faults fill the
  // block with far fewer faults than pages.
  {
    VaBlock blk;
    blk.range = 0;
    blk.num_pages = kPagesPerBlock;
    Table t({"step", "faulted_leaf", "prefetched_now", "resident_after"});
    std::uint32_t n = 0;
    for (std::uint32_t leaf = 0; !blk.fully_resident() && n < 64;
         leaf = (leaf + 88) % 512) {
      if (blk.gpu_resident.test(leaf)) continue;
      ++n;
      PageMask f;
      f.set(leaf);
      auto res = Prefetcher::compute_fast(blk, f, /*big_page_upgrade=*/true,
                                          /*threshold=*/51);
      blk.gpu_resident |= f;
      blk.gpu_resident |= res.prefetch;
      t.add_row({"B" + std::to_string(n), fmt(std::uint64_t{leaf}),
                 fmt(static_cast<std::uint64_t>(res.prefetch.count())),
                 fmt(static_cast<std::uint64_t>(blk.gpu_resident.count()))});
    }
    t.print("scenario B: batch-by-batch cascade to the full VABlock");
    shape_check("the full 2 MB block is fetched from ~20 scattered faults",
                blk.fully_resident() && n <= 24);
  }

  // Scenario C: threshold sensitivity for a single fault.
  {
    VaBlock blk;
    blk.range = 0;
    blk.num_pages = kPagesPerBlock;
    PageMask one;
    one.set(0);
    Table t({"threshold_pct", "prefetched_pages"});
    for (std::uint32_t th : {1u, 2u, 5u, 26u, 51u, 76u, 100u}) {
      auto res = Prefetcher::compute_fast(blk, one, true, th);
      t.add_row({fmt(std::uint64_t{th}),
                 fmt(static_cast<std::uint64_t>(res.prefetch.count()))});
    }
    t.print("scenario C: one fault, threshold sweep");
  }
  return 0;
}
