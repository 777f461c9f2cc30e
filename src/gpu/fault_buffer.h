// GPU fault buffer: fixed-capacity circular queue of fault entries.
//
// Models the hardware structure from paper §III-C: a circular device-side
// pointer queue whose entries become "ready" slightly after the pointer is
// visible (PCIe write asynchronicity), forcing the driver to poll laggards.
// When the buffer is full new faults are dropped — the faulting warp stays
// parked and will re-fault after the next replay, one of the sources of
// multiple replays per fault (§III-E).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "gpu/fault.h"
#include "sim/hazards.h"

namespace uvmsim {

class FaultBuffer {
 public:
  struct Config {
    std::uint32_t capacity = 4096;  ///< hardware entry count
    /// Delay between pointer visibility and entry readiness.
    SimDuration ready_lag = 300;  // ns
  };

  explicit FaultBuffer(const Config& cfg) : cfg_(cfg) {}

  /// Attempts to append a fault at time `now`. Returns false (and counts a
  /// drop) if the buffer is full or an injected hazard loses the entry; a
  /// hazard may also duplicate the entry or stall its ready flag.
  bool push(FaultEntry e, SimTime now);

  /// Appends an entry verbatim, preserving the caller's raised_at/ready_at
  /// (normal pushes stamp both). Models entries whose timestamps were
  /// corrupted in flight; the driver's fetch path must tolerate them.
  /// Test seam: FaultBatchTest.ClampsQueueLatencyFromFutureRaiseTime.
  bool push_preserving_timestamps(const FaultEntry& e);

  /// Attaches the hazard injector (null = entries are never corrupted).
  void set_hazard_injector(HazardInjector* h) { hazards_ = h; }

  /// Pops the oldest entry, if any. The driver pays a poll penalty when
  /// now < entry.ready_at; that cost lives in the driver's cost model — this
  /// just hands out the entry.
  std::optional<FaultEntry> pop();

  /// Oldest entry without removing it.
  [[nodiscard]] const FaultEntry* peek() const {
    return size_ == 0 ? nullptr : &ring_[head_];
  }

  /// Discards all entries (batch-flush policy). Returns how many were
  /// discarded.
  std::uint64_t flush();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ >= cfg_.capacity; }

  // --- statistics ---
  [[nodiscard]] std::uint64_t total_pushed() const { return pushed_; }
  [[nodiscard]] std::uint64_t total_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t total_flushed() const { return flushed_; }
  [[nodiscard]] std::size_t max_occupancy() const { return max_occupancy_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  /// Appends to the ring; the caller has checked full().
  void append(const FaultEntry& e);

  Config cfg_;
  HazardInjector* hazards_ = nullptr;
  /// Circular storage, grown by doubling up to `capacity` and then reused,
  /// so a run in steady state allocates nothing per fault.
  std::vector<FaultEntry> ring_;
  std::size_t head_ = 0;  ///< index of the oldest entry
  std::size_t size_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t flushed_ = 0;
  std::size_t max_occupancy_ = 0;
};

}  // namespace uvmsim
