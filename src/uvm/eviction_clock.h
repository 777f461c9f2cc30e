// CLOCK (second-chance) eviction.
//
// Classic CLOCK over the tracked slices: a circular list with one reference
// bit per slice and a sweeping hand. A fault-driven touch sets the ref bit;
// the victim scan clears set bits as it sweeps and evicts the first
// unreferenced eligible slice. Unlike the stock LRU, a touch is O(1) with no
// list relink — the reorder cost is paid lazily by the sweep.
//
// Lifecycle sensitivity (the PR-10 bugfix audit): a slice inserted by
// on_slice_allocated starts with its ref bit CLEAR. Speculatively
// prefetched blocks that are never demanded therefore sit at ref=0 and are
// evicted on the hand's first pass, while demanded data earns a second
// chance from its touches. This is exactly the distinction the stock LRU
// masked (allocation and touch both meant "move to MRU"), which is why the
// driver must not emit on_slice_touched for speculative backing.
//
// Determinism: the hand position and ref bits are pure functions of the
// notification/pick sequence — no clocks, no randomness — so behaviour is
// reproducible because the driver's bin walk is serial.
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

class ClockEviction : public EvictionPolicy {
 public:
  void on_slice_allocated(SliceKey k) override;
  void on_slice_touched(SliceKey k) override;
  void on_slice_evicted(SliceKey k) override;
  std::optional<SliceKey> pick_victim(
      const std::function<bool(SliceKey)>& eligible) override;
  // pick_victim_classified: inherited default two-pass (Preferred-only,
  // then non-Ineligible) — CLOCK has no cheap single-scan preference order.

  [[nodiscard]] const char* name() const override { return "clock"; }
  [[nodiscard]] std::size_t tracked() const override { return pos_.size(); }

  /// Sweep-order snapshot starting at the hand (tests / analysis); the
  /// second member of each pair is the slice's ref bit.
  [[nodiscard]] std::vector<std::pair<SliceKey, bool>> sweep_order() const;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    SliceKey key;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    bool ref = false;  ///< set by touches, cleared by the sweeping hand
  };

  std::uint32_t acquire_node();
  /// Inserts an unlinked node just behind the hand (examined last in the
  /// current sweep).
  void link_before_hand(std::uint32_t idx);
  /// Unlinks a node from the circular list, advancing the hand off it.
  void unlink(std::uint32_t idx);

  std::vector<Node> nodes_;          ///< node pool; indices stay stable
  std::vector<std::uint32_t> free_;  ///< recycled node indices
  std::unordered_map<std::uint64_t, std::uint32_t> pos_;  ///< packed -> node
  std::uint32_t hand_ = kNil;  ///< next slice the sweep examines
};

}  // namespace uvmsim
