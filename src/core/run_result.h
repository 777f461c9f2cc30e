// Immutable snapshot of everything a finished simulation measured.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fault_log.h"
#include "core/profiler.h"
#include "gpu/gpu_engine.h"
#include "sim/hazards.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "uvm/counters.h"

namespace uvmsim {

struct RunResult {
  SimTime end_time = 0;
  std::vector<KernelStats> kernels;
  DriverCounters counters;
  Profiler profiler;
  std::vector<FaultLogEntry> fault_log;

  // Interconnect / DMA.
  std::uint64_t bytes_h2d = 0;
  std::uint64_t bytes_d2h = 0;
  std::uint64_t bytes_zero_copy = 0;  ///< fine-grained remote-access traffic
  std::uint64_t transfers_h2d = 0;
  std::uint64_t transfers_d2h = 0;
  std::uint64_t dma_copy_ops = 0;

  // Fault buffer.
  std::uint64_t buffer_pushed = 0;
  std::uint64_t buffer_dropped = 0;
  std::uint64_t buffer_flushed = 0;
  std::uint64_t buffer_max_occupancy = 0;

  // Memory.
  std::uint64_t pma_rm_calls = 0;
  std::uint64_t total_pages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t gpu_capacity_bytes = 0;
  std::uint64_t resident_pages_at_end = 0;
  std::uint64_t wasted_prefetch_at_end = 0;  ///< prefetched, never touched

  // Hazard injection (all zero / false in hazard-free runs).
  bool hazards_enabled = false;
  HazardStats hazards;
  std::uint64_t dma_failed_runs = 0;     ///< DMA runs that needed re-issue
  std::uint64_t pma_failed_rm_calls = 0; ///< transient RM-call failures

  // GPU.
  std::uint64_t utlb_hits = 0;
  std::uint64_t utlb_misses = 0;

  // Latency distributions (nanosecond histograms).
  LogHistogram stall_latency;        ///< warp stall-episode durations
  LogHistogram fault_queue_latency;  ///< fault raise -> driver fetch

  /// Sum of kernel wall times (launch to completion), the paper's primary
  /// "cumulative data access latency" measure for page-touch kernels.
  [[nodiscard]] SimDuration total_kernel_time() const;

  /// Total faults the GPU raised (including duplicates/drops) — the paper's
  /// "total faults" column in Table I.
  [[nodiscard]] std::uint64_t total_faults_raised() const;

  /// Oversubscription ratio of the run (total managed bytes / GPU memory).
  [[nodiscard]] double oversubscription() const {
    return gpu_capacity_bytes == 0
               ? 0.0
               : static_cast<double>(total_bytes) /
                     static_cast<double>(gpu_capacity_bytes);
  }

  /// Work units per second across all kernels (Fig. 10 compute rate).
  [[nodiscard]] double compute_rate() const;

  /// Evictions per fault (Table II final column).
  [[nodiscard]] double evictions_per_fault() const;
};

}  // namespace uvmsim
