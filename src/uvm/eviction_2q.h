// 2Q / segmented-LRU eviction.
//
// Two LRU segments over one BlockLinks array: blocks enter a probationary
// segment on allocation and are promoted to a protected segment on their
// first fault-driven touch. Victims come from the probation LRU end first,
// then — only when probation is exhausted — from the protected LRU end. The
// protected segment is capped at half the tracked population; overflow
// demotes the protected LRU block back to the probation MRU end, so one
// burst of touches cannot permanently pin the whole PMA.
//
// The paper's §VI-A pathology reads differently here than under the stock
// LRU: fully-resident hot data stops faulting and can still be demoted out
// of the protected segment, but a speculatively prefetched block that was
// NEVER demanded can never leave probation at all — the policy evicts
// prefetch over-reach before it evicts anything that ever proved useful.
// That distinction is exactly why the driver must not emit
// on_block_touched for speculative backing (PR-10 bugfix audit). It is
// also the only thing that separates 2Q's victim order from LRU's: while
// every block is touched right after its allocation, the two orders agree.
//
// Determinism: pure function of the notification/pick sequence; no clocks,
// no randomness, integer-only arithmetic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "uvm/eviction_links.h"
#include "uvm/eviction_policy.h"

namespace uvmsim {

class TwoQEviction : public EvictionPolicy {
 public:
  /// The protected segment holds at most this share of the tracked blocks
  /// (minimum one block once anything is promoted).
  static constexpr std::size_t kProtectedPercent = 50;

  void on_block_allocated(VaBlockId b) override;
  void on_block_touched(VaBlockId b) override;
  void on_block_evicted(VaBlockId b) override;
  void reserve_blocks(std::size_t blocks) override { links_.reserve(blocks); }
  std::optional<VaBlockId> pick_victim(
      const std::function<bool(VaBlockId)>& eligible) override;
  // pick_victim_classified: inherited default two-pass (Preferred-only,
  // then non-Ineligible).

  [[nodiscard]] const char* name() const override { return "2q"; }
  [[nodiscard]] std::size_t tracked() const override {
    return prob_.size + prot_.size;
  }
  [[nodiscard]] std::size_t protected_count() const { return prot_.size; }

 private:
  /// The link flag marks protected blocks.
  BlockLinks::List& segment_of(VaBlockId b) {
    return links_.flag(b) ? prot_ : prob_;
  }

  BlockLinks links_;
  BlockLinks::List prob_;  ///< probation (A1): new or demoted blocks
  BlockLinks::List prot_;  ///< protected (Am): touched since they entered
};

}  // namespace uvmsim
