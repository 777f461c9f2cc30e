#include "uvm/prefetcher.h"

#include <algorithm>
#include <bit>

namespace uvmsim {

Prefetcher::Result Prefetcher::compute_fast(const VaBlock& block,
                                            const PageMask& faulted,
                                            bool big_page_upgrade,
                                            std::uint32_t threshold_percent) {
  Result res;
  if (faulted.none() || block.num_pages == 0) return res;
  const std::uint32_t valid = block.num_pages;

  // Bits at or past num_pages never count — the same clamp count_range and
  // the tree's leaf validity apply.
  auto valid_word = [valid](std::uint32_t w) -> std::uint64_t {
    const std::uint32_t base = w * PageMask::kWordBits;
    if (base >= valid) return 0;
    const std::uint32_t n = std::min(PageMask::kWordBits, valid - base);
    return n == PageMask::kWordBits ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << n) - 1;
  };

  // Stage 1: big-page upgrade, one 16-bit group test per big page instead of
  // a count_range call per big page.
  PageMask upgraded;
  if (big_page_upgrade) {
    constexpr std::uint32_t kGroupsPerWord =
        PageMask::kWordBits / kPagesPerBigPage;
    constexpr std::uint64_t kGroupMask =
        (std::uint64_t{1} << kPagesPerBigPage) - 1;
    for (std::uint32_t w = 0; w < PageMask::kWords; ++w) {
      const std::uint64_t x = faulted.word(w) & valid_word(w);
      if (x == 0) continue;
      for (std::uint32_t g = 0; g < kGroupsPerWord; ++g) {
        if ((x >> (g * kPagesPerBigPage)) & kGroupMask) {
          const std::uint32_t lo =
              w * PageMask::kWordBits + g * kPagesPerBigPage;
          upgraded.set_range(lo, std::min(lo + kPagesPerBigPage, valid));
        }
      }
    }
  }

  // Stage 2: the density-tree walk, replayed over a live occupancy mask.
  // A subtree's count is a popcount range scan; expanding a leaf saturates
  // the chosen region in the mask, which is exactly what PrefetchTree's
  // saturate() does to the counts later leaves observe.
  PageMask occupied = block.gpu_resident | faulted | upgraded;
  PageMask tree_out;
  if (threshold_percent <= 100) {
    PageMask occ = occupied;
    // Total live-mask occupancy, maintained across leaf expansions. Any
    // region's count is bounded by it, so a level whose region cannot reach
    // the density threshold even if it held every occupied page is skipped
    // without touching the mask — on the sparse blocks that dominate fault
    // traffic (a just-evicted block holds little beyond the faults
    // themselves) this prunes every wide level with one multiply.
    std::uint32_t total = occ.count_range(0, valid);
    for (std::uint32_t leaf : faulted.set_bits()) {
      if (leaf >= valid) continue;
      std::uint32_t lo = leaf;      // fallback: the (occupied) leaf itself
      std::uint32_t hi = leaf + 1;
      // A region of v pages passes only when count * 100 > threshold * v,
      // and every region count is bounded by the total live occupancy — so
      // widths above total * 100 / threshold cannot pass and the walk may
      // start at the widest width that can. On the sparse blocks that
      // dominate fault traffic (a just-evicted block holds little beyond
      // the faults themselves) this skips every wide level up front.
      // Only exact for full blocks: a partial block clamps end regions to
      // v < width, which lowers the bar below what the width bound assumes.
      std::uint32_t start = kPagesPerBlock;
      if (threshold_percent > 0 && valid == kPagesPerBlock) {
        const std::uint32_t cap = total * 100u / threshold_percent;
        start = cap >= kPagesPerBlock ? kPagesPerBlock
                                      : std::bit_floor(std::max(cap, 1u));
      }
      for (std::uint32_t width = start; width >= 1; width >>= 1) {
        const std::uint32_t rlo = leaf & ~(width - 1);
        const std::uint32_t rhi = std::min(rlo + width, valid);
        if (rhi <= rlo) continue;
        const std::uint32_t v = rhi - rlo;
        // Clamped end-of-block regions have v < width; re-check the bound.
        if (total * 100u <= threshold_percent * v) continue;
        // density% > threshold%  <=>  count * 100 > threshold * valid
        const std::uint32_t cnt = occ.count_range(rlo, rhi);
        if (cnt * 100u > threshold_percent * v) {
          lo = rlo;
          hi = rhi;
          total += v - cnt;  // expansion saturates the region in occ
          break;  // first hit on the root->leaf walk == largest region
        }
      }
      tree_out.set_range(lo, hi);
      occ.set_range(lo, hi);
    }
    tree_out = tree_out.and_not(occupied);
    res.tree_updates = faulted.count();
  }

  res.prefetch =
      (upgraded | tree_out).and_not(block.gpu_resident).and_not(faulted);
  return res;
}

}  // namespace uvmsim
