// cuBLAS-style tiled SGEMM access pattern (paper §III-B, Figs. 8 & 10,
// Tables I & II): C = A * B, three n x n float matrices, 128 x 128 output
// tiles per thread block, k-panel loop reading row panels of A and column
// panels of B. The driver sees the tile sweeps; the heavy on-GPU register
// and shared-memory reuse is invisible to it — exactly the situation the
// paper points out for sgemm in §IV-B. The grid is generated one block at a
// time as the GPU dispatches it, so full-scale grids fit in memory.
#pragma once

#include <cstdint>
#include <string>

#include "workloads/workload.h"

namespace uvmsim {

class SgemmWorkload final : public Workload {
 public:
  /// `n` is rounded up to a multiple of the 128-element tile.
  explicit SgemmWorkload(std::uint64_t n, std::uint32_t compute_ns_per_ktile = 1500);

  /// The n whose 3*n^2 float footprint best fits `target_bytes`.
  static std::uint64_t n_for_bytes(std::uint64_t target_bytes);

  [[nodiscard]] std::string name() const override { return "sgemm"; }
  [[nodiscard]] std::uint64_t total_bytes() const override {
    return 3 * n_ * n_ * sizeof(float);
  }
  [[nodiscard]] std::uint64_t n() const { return n_; }
  void setup(Simulator& sim) override;

  static constexpr std::uint64_t kTile = 128;
  static constexpr std::uint32_t kWarpsPerBlock = 8;
  static constexpr std::uint32_t kRowsPerWarp = kTile / kWarpsPerBlock;

 private:
  std::uint64_t n_;
  std::uint32_t compute_ns_;
};

}  // namespace uvmsim
