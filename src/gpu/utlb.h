// Per-SM micro-TLB model.
//
// Caches positive translations at big-page (64 KB) granularity. A hit skips
// the page-table walk; a miss pays the walk latency and, if the page is
// non-resident, raises a far-fault. Unmaps (eviction) invalidate all µTLBs —
// the membar/invalidate cost is charged by the driver's mapping cost model;
// this class only models the hit/miss behaviour on the GPU side.
//
// Semantics: a fully-associative ring of `entries` slots with round-robin
// replacement; invalidate_all empties it. The same tag may occupy several
// slots (an insert never checks for an existing copy), and it stays cached
// until its last copy is overwritten.
// Every hit/miss count the simulator reports depends on exactly these
// rules, so the structures below only make them cheap, never different.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mem/constants.h"

namespace uvmsim {

class Utlb {
 public:
  explicit Utlb(std::uint32_t entries = 64)
      : slots_(entries), buckets_(bucket_count(entries)),
        bucket_shift_(64 - std::countr_zero(bucket_count(entries))) {
    if (entries == 0) {
      throw std::invalid_argument("Utlb: entries must be positive");
    }
  }

  /// True if the big page containing `p` has a cached translation.
  [[nodiscard]] bool lookup(VirtPage p) const {
    const std::uint64_t tag = tag_of(p);
    if (tag == mru_) return true;
    // Most lookups on a cold or sparse µTLB miss: a bucket with no live tag
    // answers without touching the ring.
    const Bucket& b = buckets_[bucket_of(tag)];
    if (b.live == 0) return false;
    // The bucket's newest slot usually holds the tag, if anything does. It
    // is live: a positive count means it was written after the last
    // invalidate, and every slot written since then is live.
    if (slots_[b.newest] == tag) {
      mru_ = tag;
      return true;
    }
    // A positive bucket implies live_ > 0. Live slots are
    // [next_ - live_, next_) modulo the ring size: at most two spans.
    const std::size_t n = slots_.size();
    const std::size_t begin = (next_ + n - live_) % n;
    const std::uint64_t* s = slots_.data();
    auto holds = [s, tag](std::size_t lo, std::size_t hi) {
      return std::find(s + lo, s + hi, tag) != s + hi;
    };
    const bool found = begin < next_ ? holds(begin, next_)
                                     : holds(begin, n) || holds(0, next_);
    if (found) mru_ = tag;
    return found;
  }

  /// Installs a translation (round-robin replacement).
  void insert(VirtPage p) {
    const std::uint64_t tag = tag_of(p);
    if (live_ == slots_.size()) {
      // The ring is full: the slot about to be overwritten is live. If it
      // held the memo's tag, the memo moves to the new tag below.
      --buckets_[bucket_of(slots_[next_])].live;
    } else {
      ++live_;
    }
    slots_[next_] = tag;
    Bucket& b = buckets_[bucket_of(tag)];
    ++b.live;
    b.newest = static_cast<std::uint32_t>(next_);
    mru_ = tag;
    if (++next_ == slots_.size()) next_ = 0;
  }

  /// Drops every entry (driver-issued TLB invalidate). The driver
  /// invalidates every SM's µTLB on every eviction, so this costs one
  /// bucket write per live slot and leaves the ring itself untouched.
  void invalidate_all() {
    for (std::size_t k = 0, i = next_; k < live_; ++k) {
      i = (i == 0 ? slots_.size() : i) - 1;
      buckets_[bucket_of(slots_[i])].live = 0;
    }
    live_ = 0;
    mru_ = kNone;
    ++invalidations_;
  }

  [[nodiscard]] std::uint64_t invalidations() const { return invalidations_; }

 private:
  /// No VirtPage maps to this tag (tags are page numbers / 16).
  static constexpr std::uint64_t kNone = ~0ULL;
  static std::uint64_t tag_of(VirtPage p) { return p / kPagesPerBigPage; }
  /// Eight buckets per slot keeps a miss's false-positive rate near 1/8.
  static std::size_t bucket_count(std::uint32_t entries) {
    return std::bit_ceil(8 * std::size_t{entries});
  }
  [[nodiscard]] std::size_t bucket_of(std::uint64_t tag) const {
    return static_cast<std::size_t>((tag * 0x9E3779B97F4A7C15ULL) >>
                                    bucket_shift_);
  }

  /// The ring. Live slots are exactly the `live_` positions before `next_`.
  std::vector<std::uint64_t> slots_;
  struct Bucket {
    std::uint32_t live = 0;    ///< live slots whose tag hashes here (exact)
    std::uint32_t newest = 0;  ///< slot of the last insert hashing here
  };
  std::vector<Bucket> buckets_;
  int bucket_shift_;
  std::size_t next_ = 0;
  std::size_t live_ = 0;
  /// A tag known to be live: the last one inserted or found by a scan.
  /// Only insert (which replaces it) and invalidate_all can end that.
  mutable std::uint64_t mru_ = kNone;
  std::uint64_t invalidations_ = 0;
};

}  // namespace uvmsim
