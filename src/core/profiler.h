// Driver-time profiler: the reproduction of the paper's instrumentation.
//
// The paper times the UVM driver's operations and groups them into
// categories (Fig. 3–5, 9): pre/post-processing, fault servicing — further
// split into PMA allocation, page migration, and page mapping (Fig. 4) —
// replay-policy handling, and eviction. This class accumulates simulated
// time per category; every driver code path charges its cost here as it
// advances the driver's time cursor.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "sim/time.h"

namespace uvmsim {

enum class CostCategory : std::uint8_t {
  PreProcess,      ///< fault fetch, polling, sort, VABlock binning
  ServicePmaAlloc, ///< calls into the physical memory allocator
  ServiceZero,     ///< zero-fill of never-populated pages
  ServiceMigrate,  ///< staging + DMA of page data host->device
  ServiceMap,      ///< page-table updates + membar/TLB invalidate
  ServiceOther,    ///< block locking, service state machine overhead
  ReplayPolicy,    ///< issuing replays, fault-buffer flushes
  Eviction,        ///< victim writeback, unmap, restart penalty
  ErrorRecovery,   ///< hazard recovery: DMA retries/backoff, RM-call
                   ///< retries, degraded remote mapping, watchdog rescues
  kCount
};

[[nodiscard]] std::string_view to_string(CostCategory c);

class Profiler {
 public:
  static constexpr std::size_t kNumCategories =
      static_cast<std::size_t>(CostCategory::kCount);

  void add(CostCategory c, SimDuration d) {
    totals_[static_cast<std::size_t>(c)] += d;
    ++counts_[static_cast<std::size_t>(c)];
  }

  [[nodiscard]] SimDuration total(CostCategory c) const {
    return totals_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t count(CostCategory c) const {
    return counts_[static_cast<std::size_t>(c)];
  }

  /// Sum over the three service subcategories plus service overhead.
  [[nodiscard]] SimDuration service_total() const {
    return total(CostCategory::ServicePmaAlloc) +
           total(CostCategory::ServiceZero) +
           total(CostCategory::ServiceMigrate) +
           total(CostCategory::ServiceMap) +
           total(CostCategory::ServiceOther);
  }

  /// Total driver busy time across all categories.
  [[nodiscard]] SimDuration grand_total() const {
    SimDuration t = 0;
    for (auto v : totals_) t += v;
    return t;
  }

 private:
  std::array<SimDuration, kNumCategories> totals_{};
  std::array<std::uint64_t, kNumCategories> counts_{};
};

}  // namespace uvmsim
