// Temporal activity analysis: time-bucketed series of driver events derived
// from the fault log (the "relative time step" axis of the paper's Fig. 8).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fault_log.h"
#include "sim/time.h"

namespace uvmsim {

class Timeline {
 public:
  /// Builds the series from a fault log with the given bucket width.
  Timeline(const std::vector<FaultLogEntry>& log, SimDuration bucket_width);

  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }

  /// Events of `kind` in bucket `i`.
  [[nodiscard]] std::uint64_t count(FaultLogKind kind, std::size_t i) const {
    return buckets_[i][static_cast<std::size_t>(kind)];
  }

  /// Unicode-free ASCII sparkline of a series, resampled to `width` columns
  /// and scaled to the series maximum ('.':' low' through '#': high).
  [[nodiscard]] std::string sparkline(FaultLogKind kind,
                                      std::size_t width = 80) const;

 private:
  static constexpr std::size_t kKinds = 3;
  SimDuration bucket_;
  std::vector<std::array<std::uint64_t, kKinds>> buckets_;
};

}  // namespace uvmsim
