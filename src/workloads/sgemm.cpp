#include "workloads/sgemm.h"

#include <algorithm>
#include <cmath>

namespace uvmsim {

SgemmWorkload::SgemmWorkload(std::uint64_t n,
                             std::uint32_t compute_ns_per_ktile)
    : n_((std::max<std::uint64_t>(n, kTile) + kTile - 1) / kTile * kTile),
      compute_ns_(compute_ns_per_ktile) {}

std::uint64_t SgemmWorkload::n_for_bytes(std::uint64_t target_bytes) {
  double n = std::sqrt(static_cast<double>(target_bytes) / 12.0);
  return std::max<std::uint64_t>(
      kTile, static_cast<std::uint64_t>(n / static_cast<double>(kTile)) * kTile);
}

void SgemmWorkload::setup(Simulator& sim) {
  const std::uint64_t bytes = n_ * n_ * sizeof(float);
  RangeId ra = sim.malloc_managed(bytes, "A");
  RangeId rb = sim.malloc_managed(bytes, "B");
  RangeId rc = sim.malloc_managed(bytes, "C");
  const VirtPage a = sim.address_space().range(ra).first_page;
  const VirtPage b = sim.address_space().range(rb).first_page;
  const VirtPage c = sim.address_space().range(rc).first_page;

  const std::uint64_t nt = n_ / kTile;  // tiles per dimension
  KernelSpec k;
  k.name = "sgemm";
  k.num_blocks = static_cast<std::uint32_t>(nt * nt);
  k.warps_per_block = kWarpsPerBlock;
  k.work_units = 2.0 * static_cast<double>(n_) * static_cast<double>(n_) *
                 static_cast<double>(n_);
  // Block by * nt + bx computes output tile (by, bx); warp w owns its rows
  // [w * kRowsPerWarp, +kRowsPerWarp). Each access reads or writes those
  // rows' kTile-float segment of one tile: a strided record of
  // kRowsPerWarp rows, one matrix row apart.
  k.make_block = [a, b, c, nt, n = n_, compute_ns = compute_ns_](
                     std::uint32_t blk, ThreadBlockSpec& tb) {
    const std::uint64_t by = blk / nt;
    const std::uint64_t bx = blk % nt;
    const std::uint64_t row = n * sizeof(float);
    constexpr auto kSeg = static_cast<std::uint32_t>(kTile * sizeof(float));
    // Byte offset of tile (ty, tx)'s first row of warp w.
    const auto tile = [row](std::uint64_t ty, std::uint64_t tx,
                            std::uint32_t w) {
      return (ty * kTile + w * kRowsPerWarp) * row + tx * kSeg;
    };
    for (std::uint32_t w = 0; w < kWarpsPerBlock; ++w) {
      AccessStream& s = tb.warps[w];
      for (std::uint64_t kk = 0; kk < nt; ++kk) {
        s.add_strided(a, tile(by, kk, w), kSeg, row, kRowsPerWarp,
                      /*write=*/false, compute_ns);
        s.add_strided(b, tile(kk, bx, w), kSeg, row, kRowsPerWarp,
                      /*write=*/false, compute_ns);
      }
      s.add_strided(c, tile(by, bx, w), kSeg, row, kRowsPerWarp,
                    /*write=*/true, 500);
    }
  };
  sim.launch(std::move(k));
}

}  // namespace uvmsim
