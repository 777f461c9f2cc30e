// CLOCK (second-chance) eviction.
//
// Classic CLOCK over the tracked blocks: a circular list with one reference
// bit per block and a sweeping hand. A fault-driven touch sets the ref bit;
// the victim scan clears set bits as it sweeps and evicts the first
// unreferenced eligible block. Unlike the stock LRU, a touch is O(1) with no
// list relink — the reorder cost is paid lazily by the sweep.
//
// Lifecycle sensitivity (the PR-10 bugfix audit): a block inserted by
// on_block_allocated starts with its ref bit CLEAR. Speculatively
// prefetched blocks that are never demanded therefore sit at ref=0 and are
// evicted on the hand's first pass, while demanded data earns a second
// chance from its touches. This is exactly the distinction the stock LRU
// masked (allocation and touch both meant "move to MRU"), which is why the
// driver must not emit on_block_touched for speculative backing, and must
// emit a demand fault's touch after the allocation, never before.
//
// Representation: one BlockLinks list read as a ring (the tail's successor
// is the head); the link flag is the ref bit.
//
// Determinism: the hand position and ref bits are pure functions of the
// notification/pick sequence — no clocks, no randomness — so behaviour is
// reproducible because the driver's bin walk is serial.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "uvm/eviction_links.h"
#include "uvm/eviction_policy.h"

namespace uvmsim {

class ClockEviction : public EvictionPolicy {
 public:
  void on_block_allocated(VaBlockId b) override;
  void on_block_touched(VaBlockId b) override;
  void on_block_evicted(VaBlockId b) override;
  void reserve_blocks(std::size_t blocks) override { links_.reserve(blocks); }
  std::optional<VaBlockId> pick_victim(
      const std::function<bool(VaBlockId)>& eligible) override;
  // pick_victim_classified: inherited default two-pass (Preferred-only,
  // then non-Ineligible) — CLOCK has no cheap single-scan preference order.

  [[nodiscard]] const char* name() const override { return "clock"; }
  [[nodiscard]] std::size_t tracked() const override { return ring_.size; }

 private:
  /// The block after `b` in sweep order.
  [[nodiscard]] std::uint32_t after(VaBlockId b) const {
    const std::uint32_t n = links_.next(b);
    return n != BlockLinks::kNil ? n : ring_.head;
  }

  BlockLinks links_;
  BlockLinks::List ring_;
  std::uint32_t hand_ = BlockLinks::kNil;  ///< next block the sweep examines
};

}  // namespace uvmsim
