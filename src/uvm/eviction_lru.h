// Stock fault-driven LRU eviction (paper §V-A1).
//
// The LRU list is updated ONLY when a fault from a block is handled. This
// deliberately reproduces the pathology the paper calls out in §VI-A: a
// block that becomes fully resident stops faulting, is never promoted again,
// decays to the LRU tail, and gets evicted precisely because it was hot
// enough to be fetched completely.
//
// Victim-scan cost: pick_victim() scans from the LRU end past every
// ineligible (pinned / in-flight) block on every call — O(n) per eviction
// under oversubscription. Inside a victim round (begin_victim_round /
// end_victim_round, during which eligibility is stable) the classified pick
// marks checked-ineligible blocks in place so subsequent scans in the round
// skip them without reclassifying; blocks are never moved, so the observable
// eviction order is unchanged no matter when the round ends.
//
// Representation: one BlockLinks list (head = MRU, tail = LRU); the link
// flag is the parked mark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "uvm/eviction_links.h"
#include "uvm/eviction_policy.h"

namespace uvmsim {

class LruEviction : public EvictionPolicy {
 public:
  void on_block_allocated(VaBlockId b) override;
  void on_block_touched(VaBlockId b) override;
  void on_block_evicted(VaBlockId b) override;
  void reserve_blocks(std::size_t blocks) override { links_.reserve(blocks); }
  std::optional<VaBlockId> pick_victim(
      const std::function<bool(VaBlockId)>& eligible) override;
  std::optional<VaBlockId> pick_victim_classified(
      const std::function<VictimEligibility(VaBlockId)>& classify) override;

  void begin_victim_round() override;
  void end_victim_round() override;

  [[nodiscard]] const char* name() const override { return "lru"; }
  [[nodiscard]] std::size_t tracked() const override { return list_.size; }

  /// MRU-to-LRU snapshot (tests / analysis).
  [[nodiscard]] std::vector<VaBlockId> order() const {
    std::vector<VaBlockId> out;
    out.reserve(list_.size);
    for (std::uint32_t i = list_.head; i != BlockLinks::kNil;
         i = links_.next(i)) {
      out.push_back(i);
    }
    return out;
  }

 protected:
  /// Moves a tracked block to the MRU position; no-op if untracked.
  void promote(VaBlockId b);

 private:
  BlockLinks links_;
  BlockLinks::List list_;
  /// Blocks marked parked during the current victim round, so
  /// end_victim_round() resets the marks in O(parked).
  std::vector<std::uint32_t> parked_;
  bool in_round_ = false;
};

}  // namespace uvmsim
