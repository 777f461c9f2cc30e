// Eviction-policy interface.
//
// The driver notifies the policy about VABlock lifecycle events (first
// backing, fault-driven touches, eviction) and asks it for victims when the
// PMA is exhausted. Backing is chunked below 2 MB, but residency tracking is
// block-granular, as in the paper's driver (§V-A1): a block is tracked from
// its first backed chunk until its last chunk is released, and the victim a
// policy picks is a block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "gpu/access_counters.h"
#include "mem/constants.h"

namespace uvmsim {

/// Victim classification for the single-scan pick: the driver prefers
/// evicting blocks whose range is NOT advised to live on the GPU, falls
/// back to anything eligible, and never touches ineligible (faulting or
/// service-locked) blocks.
enum class VictimEligibility : std::uint8_t {
  Ineligible,  ///< pinned / in-flight: never a victim
  Eligible,    ///< acceptable fallback victim
  Preferred,   ///< evict these first (no preferred-location hint)
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  /// A block received its first GPU backing.
  virtual void on_block_allocated(VaBlockId b) = 0;
  /// A fault to this block was serviced (the only residency signal the stock
  /// LRU gets, paper §V-A1).
  virtual void on_block_touched(VaBlockId b) = 0;
  /// The block was evicted and its backing released.
  virtual void on_block_evicted(VaBlockId b) = 0;

  /// Picks a victim among tracked blocks for which `eligible` returns true
  /// (the driver excludes the faulting block and service-locked blocks).
  /// Returns nullopt if no eligible victim exists. Implementations must
  /// record the number of blocks they examined in `last_scan_len_`.
  virtual std::optional<VaBlockId> pick_victim(
      const std::function<bool(VaBlockId)>& eligible) = 0;

  /// Single-scan victim pick with preference classes: returns the least
  /// recently used Preferred block if one exists, else the least recently
  /// used Eligible block, else nullopt. Semantically identical to two
  /// pick_victim() passes (Preferred-only, then non-Ineligible) but lets a
  /// policy do it in one scan and park ineligible blocks during a round.
  virtual std::optional<VaBlockId> pick_victim_classified(
      const std::function<VictimEligibility(VaBlockId)>& classify) {
    auto v = pick_victim([&](VaBlockId b) {
      return classify(b) == VictimEligibility::Preferred;
    });
    // The fallback pass overwrites last_scan_len_; the work done by the
    // first pass must still be visible to instrumentation, so add it back.
    const std::size_t first_pass = last_scan_len_;
    if (!v) {
      v = pick_victim([&](VaBlockId b) {
        return classify(b) != VictimEligibility::Ineligible;
      });
      last_scan_len_ += first_pass;
    }
    return v;
  }

  /// Brackets a sequence of pick_victim_classified() calls during which the
  /// classification of any given block is stable (the driver's
  /// ensure_backing loop: one faulting block, no lock changes). Policies
  /// may cache ineligibility across picks within a round — e.g. the LRU
  /// parks checked-ineligible blocks so repeated victim scans stop
  /// rescanning a pinned/in-flight tail. A no-op by default.
  virtual void begin_victim_round() {}
  virtual void end_victim_round() {}

  /// Blocks examined by the most recent victim pick (instrumentation).
  /// For the default two-pass pick_victim_classified this is the TOTAL
  /// across both passes, not just the fallback pass.
  [[nodiscard]] std::size_t last_scan_length() const { return last_scan_len_; }

  /// Sizes the per-block state for block ids below `blocks` up front, so
  /// tracking any of them later allocates nothing. A no-op by default.
  virtual void reserve_blocks(std::size_t /*blocks*/) {}

  /// Volta access-counter notification (ignored by the stock LRU).
  virtual void on_access_notification(const AccessCounterNotification&) {}

  [[nodiscard]] virtual const char* name() const = 0;
  /// Number of blocks currently tracked.
  [[nodiscard]] virtual std::size_t tracked() const = 0;

 protected:
  /// Set by every pick_victim / pick_victim_classified implementation to
  /// the number of blocks it examined.
  std::size_t last_scan_len_ = 0;
};

}  // namespace uvmsim
