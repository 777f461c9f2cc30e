#include "gpu/block_scheduler.h"

#include <algorithm>
#include <stdexcept>

namespace uvmsim {

BlockScheduler::Grid* BlockScheduler::find(std::uint64_t grid_id) {
  for (auto& g : grids_) {
    if (g.id == grid_id) return &g;
  }
  return nullptr;
}

void BlockScheduler::begin_grid(std::uint64_t grid_id,
                                std::uint32_t num_blocks) {
  if (find(grid_id) != nullptr) {
    throw std::logic_error("BlockScheduler: duplicate grid id");
  }
  grids_.push_back(Grid{grid_id, num_blocks, 0});
}

void BlockScheduler::end_grid(std::uint64_t grid_id) {
  for (std::size_t i = 0; i < grids_.size(); ++i) {
    if (grids_[i].id != grid_id) continue;
    if (grids_[i].next_block < grids_[i].num_blocks) {
      throw std::logic_error("BlockScheduler: ending grid with pending blocks");
    }
    grids_.erase(grids_.begin() + static_cast<std::ptrdiff_t>(i));
    if (rr_cursor_ > i) --rr_cursor_;
    return;
  }
  throw std::logic_error("BlockScheduler: ending unknown grid");
}

const std::vector<BlockScheduler::Dispatch>&
BlockScheduler::dispatch_available() {
  std::vector<Dispatch>& out = dispatched_;
  out.clear();
  if (grids_.empty()) return out;

  for (;;) {
    // Find a free slot on the least-loaded SM.
    std::uint32_t best_sm = num_sms_;
    std::uint32_t best_load = max_blocks_per_sm_;
    for (std::uint32_t s = 0; s < num_sms_; ++s) {
      if (sm_load_[s] < best_load) {
        best_load = sm_load_[s];
        best_sm = s;
      }
    }
    if (best_sm == num_sms_) break;  // every SM full

    // Round-robin over grids with pending blocks.
    Grid* grid = nullptr;
    for (std::size_t probe = 0; probe < grids_.size(); ++probe) {
      Grid& g = grids_[(rr_cursor_ + probe) % grids_.size()];
      if (g.next_block < g.num_blocks) {
        grid = &g;
        rr_cursor_ = (rr_cursor_ + probe + 1) % grids_.size();
        break;
      }
    }
    if (grid == nullptr) break;  // nothing pending anywhere

    ++sm_load_[best_sm];
    out.push_back(Dispatch{grid->id, grid->next_block++, best_sm});
  }
  return out;
}

void BlockScheduler::on_block_complete(std::uint32_t sm) {
  if (sm >= sm_load_.size() || sm_load_[sm] == 0) {
    throw std::logic_error("BlockScheduler: completing block on idle SM");
  }
  --sm_load_[sm];
}

}  // namespace uvmsim
