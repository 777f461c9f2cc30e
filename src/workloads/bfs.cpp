#include "workloads/bfs.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace uvmsim {

BfsWorkload::BfsWorkload(std::uint64_t edge_bytes, std::uint32_t levels,
                         std::uint32_t avg_degree, std::uint32_t compute_ns)
    : edge_bytes_(std::max<std::uint64_t>(edge_bytes, 64 * kPageSize)),
      levels_(std::clamp<std::uint32_t>(levels, 1, 16)),
      avg_degree_(std::max<std::uint32_t>(avg_degree, 2)),
      compute_ns_(compute_ns) {}

std::uint64_t BfsWorkload::total_bytes() const {
  std::uint64_t edges = edge_bytes_ / 4;           // 4-byte neighbour ids
  std::uint64_t vertices = edges / avg_degree_;
  return edge_bytes_            // edge array
         + vertices * 8         // row pointers
         + vertices;            // visited/frontier bitmaps (1B/vertex)
}

void BfsWorkload::setup(Simulator& sim) {
  std::uint64_t edges = edge_bytes_ / 4;
  std::uint64_t vertices = std::max<std::uint64_t>(edges / avg_degree_, 1024);

  RangeId redges = sim.malloc_managed(edge_bytes_, "edges");
  RangeId rrows = sim.malloc_managed(vertices * 8, "row_ptrs");
  RangeId rstate = sim.malloc_managed(std::max<std::uint64_t>(vertices, kPageSize),
                                      "frontier");
  const VaRange& E = sim.address_space().range(redges);
  const VaRange& R = sim.address_space().range(rrows);
  const VaRange& S = sim.address_space().range(rstate);

  Rng rng = sim.rng().fork();

  // Frontier sizes grow with the level (power-law expansion, capped so the
  // total work stays proportional to the edge array).
  std::uint64_t frontier = std::max<std::uint64_t>(vertices / 256, 64);
  std::vector<LanePage> reads;
  std::vector<LanePage> writes;
  for (std::uint32_t level = 0; level < levels_; ++level) {
    GridBuilder g("bfs_level" + std::to_string(level));
    constexpr std::uint64_t kVertsPerWarp = 4;
    for (std::uint64_t v0 = 0; v0 < frontier; v0 += kVertsPerWarp) {
      AccessStream& s = g.new_warp();
      for (std::uint64_t k = 0; k < kVertsPerWarp && v0 + k < frontier; ++k) {
        // A frontier vertex: read its row pointer, then its adjacency
        // segment — a contiguous run at a random edge-array offset whose
        // length follows a skewed (power-law-ish) degree distribution.
        std::uint64_t vtx = rng.next_below(vertices);
        reads.clear();
        append_pages_for_bytes(reads, R.first_page, vtx * 8, 8);

        double skew = rng.next_double();
        std::uint64_t degree = static_cast<std::uint64_t>(
            static_cast<double>(avg_degree_) / 4.0 /
            std::max(0.02, 1.0 - skew));
        degree = std::min<std::uint64_t>(degree, 64 * avg_degree_);
        std::uint64_t start = rng.next_below(std::max<std::uint64_t>(
            edges - degree, 1));
        append_pages_for_bytes(reads, E.first_page, start * 4, degree * 4);
        s.add(reads, /*write=*/false, compute_ns_);

        // Mark newly discovered vertices in the frontier/visited state.
        writes.clear();
        append_pages_for_bytes(writes, S.first_page, rng.next_below(vertices),
                               1);
        s.add(writes, /*write=*/true, compute_ns_ / 2);
      }
    }
    sim.launch(g.build(static_cast<double>(frontier) *
                       static_cast<double>(avg_degree_)));
    frontier = std::min<std::uint64_t>(frontier * 3, vertices / 4);
  }
}

}  // namespace uvmsim
