// Workload interface: each benchmark from the paper's suite (§III-B) is a
// generator that allocates managed ranges on a Simulator and queues kernels
// whose per-warp access streams reproduce the application's page-granularity
// access pattern — the only thing the UVM driver ever observes (§IV-B).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "gpu/access.h"

namespace uvmsim {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Short identifier ("regular", "sgemm", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Total managed bytes the workload allocates (drives the
  /// oversubscription ratio against the configured GPU memory).
  [[nodiscard]] virtual std::uint64_t total_bytes() const = 0;

  /// Creates ranges on `sim` and queues the workload's kernels.
  virtual void setup(Simulator& sim) = 0;
};

/// Builds a KernelSpec by appending warps; groups them into thread blocks of
/// `warps_per_block` in append order (warp 0..7 -> block 0, etc.), matching
/// a 256-thread block layout.
class GridBuilder {
 public:
  explicit GridBuilder(std::string kernel_name,
                       std::uint32_t warps_per_block = 8);

  /// Appends a warp and returns its stream for filling.
  AccessStream& new_warp();

  /// Finalizes the kernel. The builder is empty afterwards.
  KernelSpec build(double work_units = 0.0);

  [[nodiscard]] std::size_t warp_count() const { return warps_.size(); }

 private:
  std::string name_;
  std::uint32_t warps_per_block_;
  std::vector<AccessStream> warps_;
};

/// Appends to `out` the pages covered by the byte interval
/// [offset, offset+len) of a range whose first page is `range_first_page`:
/// global page numbers as lanes, ascending, each once.
void append_pages_for_bytes(std::vector<LanePage>& out,
                            VirtPage range_first_page, std::uint64_t offset,
                            std::uint64_t len);

}  // namespace uvmsim
