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

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mem/constants.h"

namespace uvmsim {

class Utlb {
 public:
  /// The live-bit table covers big pages [0, tags) until reserve() grows
  /// it: by default the first 4096 (256 MiB of VA). GpuEngine passes 0 and
  /// sizes every SM's table once, at launch, from the address space.
  static constexpr std::uint64_t kDefaultTags = 4096;

  explicit Utlb(std::uint32_t entries = 64,
                std::uint64_t tags = kDefaultTags)
      : slots_(entries, kDead) {
    if (entries == 0) {
      throw std::invalid_argument("Utlb: entries must be positive");
    }
    reserve(tags);
  }

  /// Grows the live-bit table to cover big pages [0, tags). Never shrinks.
  void reserve(std::uint64_t tags) {
    const std::size_t words = static_cast<std::size_t>((tags + 63) / 64);
    if (live_bits_.size() < words) live_bits_.resize(words, 0);
  }

  /// True if the big page containing `p` has a cached translation.
  [[nodiscard]] bool lookup(VirtPage p) const {
    const std::uint64_t tag = tag_of(p);
    assert(tag / 64 < live_bits_.size());
    return ((live_bits_[tag / 64] >> (tag % 64)) & 1) != 0;
  }

  /// Installs a translation (round-robin replacement).
  void insert(VirtPage p) {
    const std::uint64_t tag = tag_of(p);
    assert(tag / 64 < live_bits_.size());
    std::uint64_t& slot = slots_[next_];
    if (live_ == slots_.size()) {
      // The ring is full: the slot about to be overwritten is the oldest
      // live one. Its tag leaves unless a newer copy took over its bit.
      if (slot != kDead) live_bits_[slot / 64] &= ~(1ULL << (slot % 64));
    } else {
      ++live_;
    }
    std::uint64_t& word = live_bits_[tag / 64];
    if (((word >> (tag % 64)) & 1) != 0) {
      // A second copy of a live tag (the engine inserts only after a
      // miss, so it never gets here). The older copy goes dead: the tag
      // stays cached until this newer copy, overwritten later, leaves.
      for (std::size_t k = 0, i = next_; k + 1 < live_; ++k) {
        i = (i == 0 ? slots_.size() : i) - 1;
        if (slots_[i] == tag) {
          slots_[i] = kDead;
          break;
        }
      }
    }
    word |= 1ULL << (tag % 64);
    slot = tag;
    if (++next_ == slots_.size()) next_ = 0;
  }

  /// Drops every entry (driver-issued TLB invalidate). The driver
  /// invalidates every SM's µTLB on every eviction, so this costs one
  /// table write per live slot and leaves the ring itself untouched.
  void invalidate_all() {
    for (std::size_t k = 0, i = next_; k < live_; ++k) {
      i = (i == 0 ? slots_.size() : i) - 1;
      // Every set bit belongs to a live slot, so clearing whole words
      // clears only tags that are leaving anyway.
      if (slots_[i] != kDead) live_bits_[slots_[i] / 64] = 0;
    }
    live_ = 0;
    ++invalidations_;
  }

  [[nodiscard]] std::uint64_t invalidations() const { return invalidations_; }

 private:
  /// A slot whose tag left (a duplicate's older copy) or was never set.
  /// No VirtPage maps to it (tags are page numbers / 16).
  static constexpr std::uint64_t kDead = ~0ULL;
  static std::uint64_t tag_of(VirtPage p) { return p / kPagesPerBigPage; }

  /// The ring. Live slots are exactly the `live_` positions before `next_`;
  /// a live slot holds its tag, or kDead once a newer copy of it exists.
  std::vector<std::uint64_t> slots_;
  /// One bit per big page: set iff a live slot holds its tag.
  std::vector<std::uint64_t> live_bits_;
  std::size_t next_ = 0;
  std::size_t live_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace uvmsim
