#include "workloads/workload.h"

#include <algorithm>
#include <stdexcept>

namespace uvmsim {

GridBuilder::GridBuilder(std::string kernel_name,
                         std::uint32_t warps_per_block)
    : name_(std::move(kernel_name)), warps_per_block_(warps_per_block) {
  if (warps_per_block_ == 0) {
    throw std::invalid_argument("GridBuilder: warps_per_block must be >= 1");
  }
}

AccessStream& GridBuilder::new_warp() {
  warps_.emplace_back();
  return warps_.back();
}

KernelSpec GridBuilder::build(double work_units) {
  KernelSpec spec;
  spec.name = std::move(name_);
  spec.work_units = work_units;
  spec.blocks.reserve((warps_.size() + warps_per_block_ - 1) /
                      warps_per_block_);
  for (std::size_t i = 0; i < warps_.size(); i += warps_per_block_) {
    ThreadBlockSpec blk;
    std::size_t hi = std::min(warps_.size(), i + warps_per_block_);
    blk.warps.assign(std::make_move_iterator(warps_.begin() + i),
                     std::make_move_iterator(warps_.begin() + hi));
    spec.blocks.push_back(std::move(blk));
  }
  warps_.clear();
  return spec;
}

void append_pages_for_bytes(std::vector<LanePage>& out,
                            VirtPage range_first_page, std::uint64_t offset,
                            std::uint64_t len) {
  if (len == 0) return;
  const VirtPage first = range_first_page + offset / kPageSize;
  const VirtPage last = range_first_page + (offset + len - 1) / kPageSize;
  for (VirtPage p = first; p <= last; ++p) out.push_back(lane_page(p));
}

}  // namespace uvmsim
