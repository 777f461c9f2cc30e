// Thread-block scheduler.
//
// Dispatches blocks from one or more concurrently-active grids (CUDA
// streams) onto SM residency slots. Within a grid, blocks go out in
// ascending index order — reproducing the paper's Fig. 7 observation that
// "the GPU scheduler will prefer lower-numbered blocks during access, but
// there is no fixed ordering due to the nondeterminism of the GPU
// parallelism". Across concurrent grids, dispatch is round-robin, the way
// concurrent kernels share a real SM array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace uvmsim {

class BlockScheduler {
 public:
  struct Dispatch {
    std::uint64_t grid = 0;         ///< id passed to begin_grid
    std::uint32_t block_index = 0;  ///< block within that grid
    std::uint32_t sm = 0;
  };

  BlockScheduler(std::uint32_t num_sms, std::uint32_t max_blocks_per_sm)
      : num_sms_(num_sms),
        max_blocks_per_sm_(max_blocks_per_sm),
        sm_load_(num_sms, 0) {}

  /// Registers a grid of `num_blocks` blocks for dispatch. Grid ids are
  /// caller-chosen and must be unique among active grids.
  void begin_grid(std::uint64_t grid_id, std::uint32_t num_blocks);

  /// Deregisters a fully-dispatched grid (all its blocks also completed).
  void end_grid(std::uint64_t grid_id);

  /// Greedily fills free SM slots: active grids take turns (round-robin),
  /// each contributing its lowest pending block onto the least-loaded SM.
  /// The list is reused: it stays valid until the next call.
  const std::vector<Dispatch>& dispatch_available();

  /// Releases the slot held by a completed block on `sm`.
  void on_block_complete(std::uint32_t sm);

 private:
  struct Grid {
    std::uint64_t id = 0;
    std::uint32_t num_blocks = 0;
    std::uint32_t next_block = 0;
  };

  [[nodiscard]] Grid* find(std::uint64_t grid_id);

  std::uint32_t num_sms_;
  std::uint32_t max_blocks_per_sm_;
  std::vector<std::uint32_t> sm_load_;  ///< resident blocks per SM
  std::vector<Grid> grids_;             ///< active grids, registration order
  std::size_t rr_cursor_ = 0;           ///< round-robin position
  std::vector<Dispatch> dispatched_;    ///< dispatch_available's result
};

}  // namespace uvmsim
