// Per-VABlock chunk tree: the shape of a block's GPU physical backing.
//
// The real driver's PMA hands out 2 MB root chunks when memory is plentiful
// but splits them into 64 KB and 4 KB sub-chunks under pressure (the
// 4 KB-demand vs 2 MB-allocation asymmetry the paper identifies as the
// dominant oversubscription cost). This class records which chunks back one
// VABlock: either a single root chunk covering the whole block, or any mix
// of 64 KB big-page chunks and 4 KB base-page chunks. The driver allocates
// and releases the bytes through PhysicalMemoryAllocator; the tree only
// tracks the shape.
//
// Invariants (enforced by construction, checked by chunking_test):
//  - root implies no sub-chunks (a root chunk covers everything);
//  - a 4 KB base chunk never lies inside a backed 64 KB big chunk (no
//    double backing);
//  - children sum to the parent: 16 base chunks carry exactly the bytes of
//    one big chunk, 32 big chunks exactly the bytes of the root.
//
// Allocation-free: two words of bitmap state, no heap.
#pragma once

#include <bit>
#include <cstdint>

#include "mem/constants.h"
#include "mem/page_mask.h"

namespace uvmsim {

class ChunkTree {
 public:
  /// Bytes freed / chunks removed by take_chunks().
  struct TakeResult {
    std::uint64_t bytes = 0;
    std::uint32_t chunks = 0;
    std::uint32_t lo = 0;  ///< first page of the first chunk removed
    std::uint32_t hi = 0;  ///< one past the last page of the last chunk
  };

  /// True when the block is backed by one whole 2 MB root chunk.
  [[nodiscard]] bool root() const { return root_; }
  /// True when any chunk (root or sub) backs the block.
  [[nodiscard]] bool any() const { return root_ || big_ != 0 || base_.any(); }
  /// True when the block is backed by sub-chunks (split state).
  [[nodiscard]] bool fragmented() const { return !root_ && (big_ != 0 || base_.any()); }

  /// Backs the whole block with one root chunk (drops any sub-chunks; the
  /// caller owns the byte accounting for the swap).
  void set_root() {
    root_ = true;
    big_ = 0;
    base_.clear();
  }
  void clear() {
    root_ = false;
    big_ = 0;
    base_.clear();
  }

  /// Backs big page `g` (pages [16g, 16g+16)) with one 64 KB chunk.
  /// Precondition: not root, no base chunk inside the group.
  void set_big(std::uint32_t g) { big_ |= std::uint32_t{1} << g; }
  /// Backs page `p` with one 4 KB chunk.
  /// Precondition: not root, page's big group not big-backed.
  void set_base(std::uint32_t p) { base_.set(p); }

  [[nodiscard]] bool big_backed(std::uint32_t g) const {
    return (big_ >> g) & 1u;
  }
  /// True when any 4 KB base chunk lies inside big page `g`.
  [[nodiscard]] bool has_base_in(std::uint32_t g) const {
    return base_.count_range(g * kPagesPerBigPage, (g + 1) * kPagesPerBigPage) >
           0;
  }
  [[nodiscard]] bool covers(std::uint32_t page) const {
    return root_ || big_backed(big_page_of(page)) || base_.test(page);
  }

  /// Pages covered by any chunk (a big chunk near the end of a partial
  /// block may cover page indices past num_pages; callers intersect with
  /// masks that only carry valid bits).
  [[nodiscard]] PageMask backed_pages() const {
    PageMask m;
    for (std::uint32_t w = 0; w < PageMask::kWords; ++w) {
      m.set_word_bits(w, backed_word(w));
    }
    return m;
  }
  /// Storage word `w` of backed_pages() (pages [64w, 64w+64), four big
  /// pages), without building the mask.
  [[nodiscard]] std::uint64_t backed_word(std::uint32_t w) const {
    if (root_) return ~std::uint64_t{0};
    constexpr std::uint32_t kBigPerWord = PageMask::kWordBits / kPagesPerBigPage;
    // Move big-page bit j of this word to bit 16j, then widen each to the
    // 16 pages it covers (the spread bits are 16 apart, so nothing carries).
    const std::uint64_t g = (big_ >> (w * kBigPerWord)) & 0xF;
    const std::uint64_t spread =
        (g | g << 15 | g << 30 | g << 45) & 0x0001000100010001ULL;
    return base_.word(w) | spread * 0xFFFF;
  }

  /// PMA bytes the backing occupies (a root chunk is always the full 2 MB,
  /// even for a partial block).
  [[nodiscard]] std::uint64_t backed_bytes() const {
    if (root_) return kVaBlockSize;
    return static_cast<std::uint64_t>(std::popcount(big_)) * kBigPageSize +
           static_cast<std::uint64_t>(base_.count()) * kPageSize;
  }

  /// Number of chunks backing the block (1 for root).
  [[nodiscard]] std::uint32_t chunk_count() const {
    if (root_) return 1;
    return static_cast<std::uint32_t>(std::popcount(big_)) + base_.count();
  }

  /// Removes whole chunks in ascending page order until at least
  /// `want_bytes` are freed (or the tree empties), accumulating the covered
  /// pages into `pages`. A root chunk is always taken whole. Returns the
  /// bytes and chunk count removed and the page span [lo, hi) they cover;
  /// the caller returns the bytes to the PMA.
  TakeResult take_chunks(std::uint64_t want_bytes, PageMask& pages);

 private:
  bool root_ = false;
  std::uint32_t big_ = 0;  ///< bit g: 64 KB chunk over pages [16g, 16g+16)
  PageMask base_;          ///< bit p: 4 KB chunk over page p
};

}  // namespace uvmsim
