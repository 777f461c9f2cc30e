// A 512-bit page mask over one VABlock, with the run/count helpers the
// service path and prefetcher need. Stored as eight 64-bit words so range
// counts, range sets, and run decomposition work a word at a time with
// boundary masks instead of per-bit loops.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "mem/constants.h"
#include "sim/annotations.h"

namespace uvmsim {

/// One bit per 4 KB page of a VABlock.
class PageMask {
 public:
  static constexpr std::uint32_t kBits = kPagesPerBlock;
  static constexpr std::uint32_t kWordBits = 64;
  static constexpr std::uint32_t kWords = kBits / kWordBits;
  static_assert(kBits % kWordBits == 0, "mask must be whole 64-bit words");

  PageMask() = default;

  [[nodiscard]] bool test(std::uint32_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }
  /// Raw storage word `w` (bits [w*64, w*64+64)); word-at-a-time scans
  /// such as Prefetcher::compute_fast build on this instead of per-bit
  /// test() loops.
  [[nodiscard]] std::uint64_t word(std::uint32_t w) const { return words_[w]; }
  void set(std::uint32_t i) { words_[i / kWordBits] |= bit(i); }
  void reset(std::uint32_t i) { words_[i / kWordBits] &= ~bit(i); }
  /// Sets (resets) the bits `bits` of storage word `w`: set() and reset()
  /// for up to 64 pages at once.
  void set_word_bits(std::uint32_t w, std::uint64_t bits) { words_[w] |= bits; }
  void reset_word_bits(std::uint32_t w, std::uint64_t bits) {
    words_[w] &= ~bits;
  }
  /// The bits of storage word `w` that pages [lo, hi) cover; the word must
  /// overlap the range (lo < (w+1)*64 and hi > w*64).
  [[nodiscard]] static constexpr std::uint64_t range_word(std::uint32_t w,
                                                          std::uint32_t lo,
                                                          std::uint32_t hi) {
    const std::uint32_t base = w * kWordBits;
    return low_mask(hi - base) & ~low_mask(lo > base ? lo - base : 0);
  }
  void set_all() { words_.fill(~std::uint64_t{0}); }
  void clear() { words_.fill(0); }

  [[nodiscard]] std::uint32_t count() const {
    std::uint32_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::uint32_t>(std::popcount(w));
    return n;
  }
  [[nodiscard]] bool any() const {
    for (std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }
  [[nodiscard]] bool none() const { return !any(); }

  /// Number of set bits within [lo, hi). Defined inline below: the
  /// prefetcher's density walk and the service path's mask accounting call
  /// this millions of times per run, and the call itself outweighed the
  /// popcounts when it lived out of line.
  [[nodiscard]] std::uint32_t count_range(std::uint32_t lo, std::uint32_t hi) const;

  /// Sets all bits in [lo, hi).
  void set_range(std::uint32_t lo, std::uint32_t hi);

  /// Index of the first set bit >= `from`, or kBits when none remains.
  [[nodiscard]] std::uint32_t find_next_set(std::uint32_t from) const;

  PageMask& operator|=(const PageMask& o) {
    for (std::uint32_t w = 0; w < kWords; ++w) words_[w] |= o.words_[w];
    return *this;
  }
  PageMask& operator&=(const PageMask& o) {
    for (std::uint32_t w = 0; w < kWords; ++w) words_[w] &= o.words_[w];
    return *this;
  }
  [[nodiscard]] PageMask operator|(const PageMask& o) const {
    PageMask r = *this;
    r |= o;
    return r;
  }
  [[nodiscard]] PageMask operator&(const PageMask& o) const {
    PageMask r = *this;
    r &= o;
    return r;
  }
  [[nodiscard]] PageMask operator~() const {
    PageMask r;
    for (std::uint32_t w = 0; w < kWords; ++w) r.words_[w] = ~words_[w];
    return r;
  }
  [[nodiscard]] PageMask and_not(const PageMask& o) const {
    PageMask r;
    for (std::uint32_t w = 0; w < kWords; ++w) {
      r.words_[w] = words_[w] & ~o.words_[w];
    }
    return r;
  }
  bool operator==(const PageMask& o) const { return words_ == o.words_; }

  /// A contiguous run of set pages: [first, first+count).
  struct Run {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    bool operator==(const Run&) const = default;
  };

  /// Forward iteration over set-bit indices in ascending order without
  /// materialising a vector: `for (std::uint32_t i : mask.set_bits())`.
  class SetBitIterator {
   public:
    using value_type = std::uint32_t;
    using difference_type = std::int32_t;

    SetBitIterator(const PageMask* m, std::uint32_t i) : mask_(m), i_(i) {}
    std::uint32_t operator*() const { return i_; }
    SetBitIterator& operator++() {
      i_ = mask_->find_next_set(i_ + 1);
      return *this;
    }
    bool operator!=(const SetBitIterator& o) const { return i_ != o.i_; }
    bool operator==(const SetBitIterator& o) const { return i_ == o.i_; }

   private:
    const PageMask* mask_;
    std::uint32_t i_;
  };
  struct SetBitRange {
    const PageMask* mask;
    [[nodiscard]] SetBitIterator begin() const {
      return SetBitIterator{mask, mask->find_next_set(0)};
    }
    [[nodiscard]] SetBitIterator end() const {
      return SetBitIterator{mask, kBits};
    }
  };
  [[nodiscard]] SetBitRange set_bits() const { return SetBitRange{this}; }

  /// Calls `f(Run)` for each maximal run of set bits, ascending, in one pass
  /// over the words (countr_zero/countr_one per transition — no per-bit
  /// loop, no vector). The service path sizes one DMA op per run from this
  /// (runs_to_bytes).
  template <typename F>
  UVMSIM_HOT void for_each_run(F&& f) const {
    std::uint32_t run_first = 0;
    std::uint32_t run_len = 0;  // > 0: an open run crossing a word boundary
    for (std::uint32_t w = 0; w < kWords; ++w) {
      std::uint64_t x = words_[w];
      const std::uint32_t base = w * kWordBits;
      std::uint32_t consumed = 0;  // bits of this word already scanned
      if (run_len > 0) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(std::countr_one(x));
        run_len += len;
        if (len == kWordBits) continue;  // run covers this whole word too
        f(Run{run_first, run_len});
        run_len = 0;
        x >>= len;
        consumed = len;
      }
      while (x != 0) {
        const std::uint32_t skip =
            static_cast<std::uint32_t>(std::countr_zero(x));
        x >>= skip;
        consumed += skip;
        const std::uint32_t len =
            static_cast<std::uint32_t>(std::countr_one(x));
        if (consumed + len == kWordBits) {  // run touches the word's end:
          run_first = base + consumed;     // it may continue into the next
          run_len = len;
          break;
        }
        f(Run{base + consumed, len});
        x >>= len;
        consumed += len;
      }
    }
    if (run_len > 0) f(Run{run_first, run_len});
  }

 private:
  static constexpr std::uint64_t bit(std::uint32_t i) {
    return std::uint64_t{1} << (i % kWordBits);
  }
  /// All-ones below bit `b` (b in [0, 64]).
  static constexpr std::uint64_t low_mask(std::uint32_t b) {
    return b >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1;
  }

  std::array<std::uint64_t, kWords> words_{};
};

// The three hottest range helpers live here so every caller inlines them —
// the prefetcher's density walk alone issues millions of count_range calls
// per run and the out-of-line call overhead dominated the popcounts.

inline std::uint32_t PageMask::count_range(std::uint32_t lo,
                                           std::uint32_t hi) const {
  if (lo >= hi) return 0;
  const std::uint32_t wlo = lo / kWordBits;
  const std::uint32_t whi = (hi - 1) / kWordBits;
  // Mask off bits below lo in the first word and at/above hi in the last.
  if (wlo == whi) {
    const std::uint64_t w =
        words_[wlo] & low_mask(hi - wlo * kWordBits) & ~low_mask(lo % kWordBits);
    return static_cast<std::uint32_t>(std::popcount(w));
  }
  std::uint32_t n = static_cast<std::uint32_t>(
      std::popcount(words_[wlo] & ~low_mask(lo % kWordBits)));
  for (std::uint32_t w = wlo + 1; w < whi; ++w) {
    n += static_cast<std::uint32_t>(std::popcount(words_[w]));
  }
  n += static_cast<std::uint32_t>(
      std::popcount(words_[whi] & low_mask(hi - whi * kWordBits)));
  return n;
}

inline void PageMask::set_range(std::uint32_t lo, std::uint32_t hi) {
  if (lo >= hi) return;
  const std::uint32_t wlo = lo / kWordBits;
  const std::uint32_t whi = (hi - 1) / kWordBits;
  if (wlo == whi) {
    words_[wlo] |= low_mask(hi - wlo * kWordBits) & ~low_mask(lo % kWordBits);
    return;
  }
  words_[wlo] |= ~low_mask(lo % kWordBits);
  for (std::uint32_t w = wlo + 1; w < whi; ++w) words_[w] = ~std::uint64_t{0};
  words_[whi] |= low_mask(hi - whi * kWordBits);
}

inline std::uint32_t PageMask::find_next_set(std::uint32_t from) const {
  if (from >= kBits) return kBits;
  std::uint32_t w = from / kWordBits;
  std::uint64_t word = words_[w] & ~low_mask(from % kWordBits);
  while (word == 0) {
    if (++w == kWords) return kBits;
    word = words_[w];
  }
  return w * kWordBits + static_cast<std::uint32_t>(std::countr_zero(word));
}

}  // namespace uvmsim
