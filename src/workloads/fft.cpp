#include "workloads/fft.h"

#include <algorithm>
#include <array>
#include <bit>

namespace uvmsim {

FftWorkload::FftWorkload(std::uint64_t bytes,
                         std::uint32_t passes_per_direction,
                         std::uint32_t compute_ns)
    : bytes_(std::bit_ceil(std::max<std::uint64_t>(bytes, 2 * kPageSize))),
      passes_(passes_per_direction),
      compute_ns_(compute_ns) {}

void FftWorkload::launch_pass(Simulator& sim, const VaRange& r,
                              std::uint64_t stride, const char* dir) {
  const std::uint64_t pages = r.num_pages;
  GridBuilder g(std::string("fft_") + dir);
  constexpr std::uint64_t kPairsPerWarp = 4;

  AccessStream* s = nullptr;
  std::uint64_t in_warp = 0;
  for (std::uint64_t j = 0; j < pages; ++j) {
    if ((j & stride) != 0) continue;  // enumerate lower butterfly indices
    if (s == nullptr || in_warp == kPairsPerWarp) {
      s = &g.new_warp();
      in_warp = 0;
    }
    const std::array<LanePage, 2> pair = {
        lane_page(r.first_page + j), lane_page(r.first_page + (j | stride))};
    s->add(pair, /*write=*/true, compute_ns_);
    ++in_warp;
  }
  double n = static_cast<double>(bytes_ / 8);  // complex float elements
  sim.launch(g.build(5.0 * n));                // ~5 flops/element/pass
}

void FftWorkload::setup(Simulator& sim) {
  RangeId rid = sim.malloc_managed(bytes_, "signal");
  const VaRange& r = sim.address_space().range(rid);
  const std::uint64_t pages = r.num_pages;

  std::uint32_t max_passes = static_cast<std::uint32_t>(
      std::bit_width(pages) > 1 ? std::bit_width(pages) - 1 : 1);
  std::uint32_t passes = std::min(passes_, max_passes);

  // Forward: stride pages/2, pages/4, ...
  for (std::uint32_t p = 0; p < passes; ++p) {
    launch_pass(sim, r, pages >> (p + 1), "fwd");
  }
  // Inverse: strides back up.
  for (std::uint32_t p = passes; p-- > 0;) {
    launch_pass(sim, r, pages >> (p + 1), "inv");
  }
}

}  // namespace uvmsim
