#include "workloads/tealeaf.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace uvmsim {

TeaLeafWorkload::TeaLeafWorkload(std::uint64_t n, std::uint32_t iterations,
                                 std::uint32_t compute_ns)
    : n_(std::max<std::uint64_t>(n, 64)),
      iterations_(std::max<std::uint32_t>(iterations, 1)),
      compute_ns_(compute_ns) {}

std::uint64_t TeaLeafWorkload::n_for_bytes(std::uint64_t target_bytes) {
  double n = std::sqrt(static_cast<double>(target_bytes) / 48.0);
  return std::max<std::uint64_t>(64, static_cast<std::uint64_t>(n));
}

void TeaLeafWorkload::setup(Simulator& sim) {
  const std::uint64_t bytes = n_ * n_ * sizeof(double);
  const char* names[6] = {"u", "p", "r", "w", "Kx", "Ky"};
  // Create every range first: range references are invalidated by later
  // allocations.
  std::vector<RangeId> ids;
  for (const char* nm : names) ids.push_back(sim.malloc_managed(bytes, nm));
  std::vector<const VaRange*> v;
  v.reserve(6);
  for (RangeId id : ids) v.push_back(&sim.address_space().range(id));
  const VaRange& u = *v[0];
  const VaRange& p = *v[1];
  const VaRange& rr = *v[2];
  const VaRange& w = *v[3];
  const VaRange& kx = *v[4];
  const VaRange& ky = *v[5];
  const std::uint64_t pages = u.num_pages;

  // One CG-style iteration: w = A p (stencil read of p/Kx/Ky, write w),
  // then the vector updates touching u and r. Page-granularity stencil:
  // page j of p plus its +-1 neighbours (the north/south halo rows land in
  // adjacent pages for row-major storage).
  constexpr std::uint64_t kChunks = 4;
  for (std::uint32_t it = 0; it < iterations_; ++it) {
    GridBuilder g("tealeaf_cg_iter");
    std::vector<LanePage> reads;
    for (std::uint64_t j0 = 0; j0 < pages; j0 += kChunks) {
      AccessStream& s = g.new_warp();
      std::uint64_t hi = std::min(pages, j0 + kChunks);
      for (std::uint64_t j = j0; j < hi; ++j) {
        reads.clear();
        reads.push_back(lane_page(p.first_page + j));
        if (j > 0) reads.push_back(lane_page(p.first_page + j - 1));
        if (j + 1 < pages) reads.push_back(lane_page(p.first_page + j + 1));
        reads.push_back(lane_page(kx.first_page + j));
        reads.push_back(lane_page(ky.first_page + j));
        s.add(reads, /*write=*/false, compute_ns_);
        const std::array<LanePage, 3> writes = {lane_page(w.first_page + j),
                                                lane_page(rr.first_page + j),
                                                lane_page(u.first_page + j)};
        s.add(writes, /*write=*/true, compute_ns_ / 2);
      }
    }
    // ~10 flops per grid point per iteration.
    sim.launch(g.build(10.0 * static_cast<double>(n_ * n_)));
  }
}

}  // namespace uvmsim
