// 2Q / segmented-LRU eviction.
//
// Two LRU segments over one node pool: slices enter a probationary segment
// on allocation and are promoted to a protected segment on their first
// fault-driven touch. Victims come from the probation LRU end first, then —
// only when probation is exhausted — from the protected LRU end. The
// protected segment is capped at a percentage of the tracked population;
// overflow demotes the protected LRU slice back to the probation MRU end,
// so one burst of touches cannot permanently pin the whole PMA.
//
// The paper's §VI-A pathology reads differently here than under the stock
// LRU: fully-resident hot data stops faulting and can still be demoted out
// of the protected segment, but a speculatively prefetched block that was
// NEVER demanded can never leave probation at all — the policy evicts
// prefetch over-reach before it evicts anything that ever proved useful.
// That distinction is exactly why the driver must not emit
// on_slice_touched for speculative backing (PR-10 bugfix audit).
//
// Determinism: pure function of the notification/pick sequence; no clocks,
// no randomness, integer-only arithmetic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <unordered_map>
#include <vector>

#include "uvm/eviction_policy.h"

namespace uvmsim {

class TwoQEviction : public EvictionPolicy {
 public:
  /// `protected_percent` (1..99) caps the protected segment at that share of the
  /// tracked slice count (minimum one slice once anything is promoted).
  explicit TwoQEviction(unsigned protected_percent = 50);

  void on_slice_allocated(SliceKey k) override;
  void on_slice_touched(SliceKey k) override;
  void on_slice_evicted(SliceKey k) override;
  std::optional<SliceKey> pick_victim(
      const std::function<bool(SliceKey)>& eligible) override;
  // pick_victim_classified: inherited default two-pass (Preferred-only,
  // then non-Ineligible).

  [[nodiscard]] const char* name() const override { return "2q"; }
  [[nodiscard]] std::size_t tracked() const override { return pos_.size(); }

  /// Victim-scan-order snapshot: probation LRU end first, then protected
  /// LRU end (tests / analysis); the bool is "in the protected segment".
  [[nodiscard]] std::vector<std::pair<SliceKey, bool>> scan_order() const;
  [[nodiscard]] std::size_t protected_count() const { return prot_.size; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    SliceKey key;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    bool is_protected = false;
  };

  /// One intrusive doubly-linked LRU list (head = MRU, tail = LRU).
  struct Segment {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::size_t size = 0;
  };

  std::uint32_t acquire_node();
  void link_front(Segment& seg, std::uint32_t idx);
  void unlink(Segment& seg, std::uint32_t idx);
  Segment& segment_of(std::uint32_t idx) {
    return nodes_[idx].is_protected ? prot_ : prob_;
  }
  /// Demotes protected LRU slices to the probation MRU end until the
  /// protected segment fits its cap.
  void enforce_protected_cap();
  [[nodiscard]] std::size_t protected_cap() const;

  std::vector<Node> nodes_;          ///< node pool; indices stay stable
  std::vector<std::uint32_t> free_;  ///< recycled node indices
  std::unordered_map<std::uint64_t, std::uint32_t> pos_;  ///< packed -> node
  Segment prob_;  ///< probation (A1): allocated, never touched since entry
  Segment prot_;  ///< protected (Am): touched at least once
  unsigned protected_percent_;
};

}  // namespace uvmsim
