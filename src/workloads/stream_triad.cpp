#include "workloads/stream_triad.h"

#include <algorithm>
#include <array>

namespace uvmsim {

StreamTriad::StreamTriad(std::uint64_t bytes_per_array,
                         std::uint32_t iterations, std::uint32_t compute_ns)
    : bytes_per_array_(std::max<std::uint64_t>(bytes_per_array, kPageSize)),
      iterations_(std::max<std::uint32_t>(iterations, 1)),
      compute_ns_(compute_ns) {}

void StreamTriad::setup(Simulator& sim) {
  RangeId raid = sim.malloc_managed(bytes_per_array_, "a");
  RangeId rbid = sim.malloc_managed(bytes_per_array_, "b");
  RangeId rcid = sim.malloc_managed(bytes_per_array_, "c");
  const VaRange& a = sim.address_space().range(raid);
  const VaRange& b = sim.address_space().range(rbid);
  const VaRange& c = sim.address_space().range(rcid);
  const std::uint64_t pages = a.num_pages;

  // Each warp covers kChunks page-sized element chunks: per chunk, read the
  // b and c pages, then write the a page.
  constexpr std::uint64_t kChunks = 4;
  for (std::uint32_t it = 0; it < iterations_; ++it) {
    GridBuilder g("stream_triad");
    for (std::uint64_t j0 = 0; j0 < pages; j0 += kChunks) {
      AccessStream& s = g.new_warp();
      std::uint64_t hi = std::min(pages, j0 + kChunks);
      for (std::uint64_t j = j0; j < hi; ++j) {
        const std::array<LanePage, 2> reads = {lane_page(b.first_page + j),
                                               lane_page(c.first_page + j)};
        s.add(reads, /*write=*/false, compute_ns_);
        const std::array<LanePage, 1> writes = {lane_page(a.first_page + j)};
        s.add(writes, /*write=*/true, compute_ns_ / 2);
      }
    }
    // Triad moves 3 arrays of data: work = elements (doubles).
    sim.launch(g.build(static_cast<double>(bytes_per_array_ / 8)));
  }
}

}  // namespace uvmsim
