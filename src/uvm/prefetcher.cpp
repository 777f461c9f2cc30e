#include "uvm/prefetcher.h"

#include <algorithm>
#include <bit>

namespace uvmsim {

Prefetcher::Result Prefetcher::compute_fast(const VaBlock& block,
                                            const PageMask& faulted,
                                            bool big_page_upgrade,
                                            std::uint32_t threshold_percent) {
  Result res;
  const std::uint32_t valid = block.num_pages;
  if (valid == 0) return res;
  static constexpr std::uint32_t kWordBits = PageMask::kWordBits;
  static constexpr std::uint32_t kWords = PageMask::kWords;

  // Bits at or past num_pages never count — the same clamp count_range and
  // the tree's leaf validity apply.
  auto valid_word = [valid](std::uint32_t w) -> std::uint64_t {
    const std::uint32_t base = w * kWordBits;
    if (base >= valid) return 0;
    const std::uint32_t n = std::min(kWordBits, valid - base);
    return n == kWordBits ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  };

  // One pass over the words builds the live occupancy (resident | faulted
  // | stage-1 big-page upgrade, valid pages only) and its per-word
  // popcounts. The upgrade is branch-free: a 16-bit group is non-empty iff
  // adding 0x7FFF to its low 15 bits carries into (or it already has) bit
  // 15; that one bit per group is then spread over the whole group.
  static_assert(kPagesPerBigPage == 16, "the group trick assumes 16 pages");
  constexpr std::uint64_t kLow15 = 0x7FFF7FFF7FFF7FFFull;
  constexpr std::uint64_t kTop = 0x8000800080008000ull;
  std::uint64_t occ[kWords];
  std::uint32_t cnt[kWords];
  std::uint32_t total = 0;  // live occupancy over the whole block
  std::uint32_t nfaulted = 0;
  for (std::uint32_t w = 0; w < kWords; ++w) {
    const std::uint64_t f = faulted.word(w);
    const std::uint64_t vw = valid_word(w);
    std::uint64_t o = block.gpu_resident.word(w) | f;
    if (big_page_upgrade) {
      const std::uint64_t x = f & vw;
      const std::uint64_t nz = (((x & kLow15) + kLow15) | x) & kTop;
      o |= (nz >> 15) * 0xFFFFu;
    }
    occ[w] = o & vw;
    cnt[w] = static_cast<std::uint32_t>(std::popcount(occ[w]));
    total += cnt[w];
    nfaulted += static_cast<std::uint32_t>(std::popcount(f));
  }
  if (nfaulted == 0) return res;

  // Stage 2: the density-tree walk, replayed over the live occupancy.
  // Expanding a leaf saturates the chosen region in `occ`, which is exactly
  // what PrefetchTree's saturate() does to the counts later leaves observe.
  const auto expand = [&](std::uint32_t leaf) {
    // Root to leaf; the first region denser than the threshold is the
    // largest. The leaf itself is occupied, so when none passes its
    // fallback region changes nothing.
    for (std::uint32_t width = kPagesPerBlock; width >= 1; width >>= 1) {
      const std::uint32_t rlo = leaf & ~(width - 1);
      const std::uint32_t rhi = std::min(rlo + width, valid);
      const std::uint32_t v = rhi - rlo;
      // A region of v pages passes only when count * 100 > threshold * v,
      // and no count exceeds the block's live occupancy: on the sparse
      // blocks that dominate fault traffic this skips each wide level
      // with one multiply, before any count is read.
      if (total * 100u <= threshold_percent * v) continue;
      const std::uint32_t wlo = rlo / kWordBits;
      if (width >= kWordBits) {
        // Whole words: the count is a sum of word counts, and saturating
        // refreshes just those words.
        const std::uint32_t whi = (rhi - 1) / kWordBits;
        std::uint32_t c = 0;
        for (std::uint32_t w = wlo; w <= whi; ++w) c += cnt[w];
        if (c * 100u <= threshold_percent * v) continue;
        for (std::uint32_t w = wlo; w <= whi; ++w) {
          occ[w] = valid_word(w);
          cnt[w] = static_cast<std::uint32_t>(std::popcount(occ[w]));
        }
        total += v - c;
        return;
      }
      // Inside one word: one masked popcount.
      const std::uint64_t m =
          (((std::uint64_t{1} << width) - 1) << (rlo % kWordBits)) &
          valid_word(wlo);
      const std::uint32_t c =
          static_cast<std::uint32_t>(std::popcount(occ[wlo] & m));
      if (c * 100u <= threshold_percent * v) continue;
      occ[wlo] |= m;
      cnt[wlo] += v - c;
      total += v - c;
      return;
    }
  };
  if (threshold_percent <= 100) {
    res.tree_updates = nfaulted;
    for (std::uint32_t w = 0; w < kWords; ++w) {
      for (std::uint64_t x = faulted.word(w) & valid_word(w); x != 0;
           x &= x - 1) {
        expand(w * kWordBits +
               static_cast<std::uint32_t>(std::countr_zero(x)));
      }
    }
  }

  // Everything the walk (or the upgrade) made occupied that was neither
  // resident nor faulted is new: the prefetch set.
  for (std::uint32_t w = 0; w < kWords; ++w) {
    const std::uint64_t p =
        occ[w] & ~(block.gpu_resident.word(w) | faulted.word(w));
    if (p != 0) res.prefetch.set_word_bits(w, p);
  }
  return res;
}

}  // namespace uvmsim
