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

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mem/constants.h"

namespace uvmsim {

class Utlb {
 public:
  explicit Utlb(std::uint32_t entries = 64)
      : slots_(entries), heads_(bucket_count(entries), kNil),
        bucket_shift_(64 - std::countr_zero(bucket_count(entries))) {
    if (entries == 0) {
      throw std::invalid_argument("Utlb: entries must be positive");
    }
  }

  /// True if the big page containing `p` has a cached translation.
  [[nodiscard]] bool lookup(VirtPage p) const {
    const std::uint64_t tag = tag_of(p);
    if (tag == mru_) return true;
    // The bucket's chain holds exactly the live slots whose tag hashes
    // there, newest first; most chains are empty or one slot long.
    for (std::uint32_t i = heads_[bucket_of(tag)]; i != kNil;
         i = slots_[i].next) {
      if (slots_[i].tag == tag) {
        mru_ = tag;
        return true;
      }
    }
    return false;
  }

  /// Installs a translation (round-robin replacement).
  void insert(VirtPage p) {
    const std::uint64_t tag = tag_of(p);
    const auto s = static_cast<std::uint32_t>(next_);
    if (live_ == slots_.size()) {
      // The ring is full: the slot about to be overwritten is the oldest
      // live one, so it leaves its chain. If it held the memo's tag, the
      // memo moves to the new tag below.
      unlink_tail(s);
    } else {
      ++live_;
    }
    Slot& slot = slots_[s];
    std::uint32_t& head = heads_[bucket_of(tag)];
    slot.tag = tag;
    slot.prev = kNil;
    slot.next = head;
    if (head != kNil) slots_[head].prev = s;
    head = s;
    mru_ = tag;
    if (++next_ == slots_.size()) next_ = 0;
  }

  /// Drops every entry (driver-issued TLB invalidate). The driver
  /// invalidates every SM's µTLB on every eviction, so this costs one
  /// bucket write per live slot and leaves the ring itself untouched.
  void invalidate_all() {
    for (std::size_t k = 0, i = next_; k < live_; ++k) {
      i = (i == 0 ? slots_.size() : i) - 1;
      heads_[bucket_of(slots_[i].tag)] = kNil;
    }
    live_ = 0;
    mru_ = kNone;
    ++invalidations_;
  }

  [[nodiscard]] std::uint64_t invalidations() const { return invalidations_; }

 private:
  /// No VirtPage maps to this tag (tags are page numbers / 16).
  static constexpr std::uint64_t kNone = ~0ULL;
  /// End of a chain.
  static constexpr std::uint32_t kNil = ~0U;
  static std::uint64_t tag_of(VirtPage p) { return p / kPagesPerBigPage; }
  /// Eight buckets per slot keeps the expected chain length near 1/8.
  static std::size_t bucket_count(std::uint32_t entries) {
    return std::bit_ceil(8 * std::size_t{entries});
  }
  [[nodiscard]] std::size_t bucket_of(std::uint64_t tag) const {
    return static_cast<std::size_t>((tag * 0x9E3779B97F4A7C15ULL) >>
                                    bucket_shift_);
  }
  /// Removes live slot `s` from its bucket's chain. Only the oldest live
  /// slot is ever removed, and chains are newest first, so `s` is its
  /// chain's tail.
  void unlink_tail(std::uint32_t s) {
    const Slot& slot = slots_[s];
    assert(slot.next == kNil);
    if (slot.prev == kNil) {
      heads_[bucket_of(slot.tag)] = kNil;
    } else {
      slots_[slot.prev].next = kNil;
    }
  }

  /// A ring slot and its links in its bucket's chain (slot indices). Only
  /// live slots are linked; a dead slot's links are stale.
  struct Slot {
    std::uint64_t tag = kNone;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  /// The ring. Live slots are exactly the `live_` positions before `next_`.
  std::vector<Slot> slots_;
  /// Newest live slot of each bucket's chain, or kNil.
  std::vector<std::uint32_t> heads_;
  int bucket_shift_;
  std::size_t next_ = 0;
  std::size_t live_ = 0;
  /// A tag known to be live: the last one inserted or found in a chain.
  /// Only insert (which replaces it) and invalidate_all can end that.
  mutable std::uint64_t mru_ = kNone;
  std::uint64_t invalidations_ = 0;
};

}  // namespace uvmsim
