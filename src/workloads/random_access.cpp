#include "workloads/random_access.h"

#include <algorithm>

namespace uvmsim {

RandomTouch::RandomTouch(std::uint64_t bytes, std::uint32_t compute_ns)
    : bytes_(std::max<std::uint64_t>(bytes, kPageSize)),
      compute_ns_(compute_ns) {}

void RandomTouch::setup(Simulator& sim) {
  RangeId rid = sim.malloc_managed(bytes_, "data");
  const VaRange& r = sim.address_space().range(rid);

  Rng rng = sim.rng().fork();
  const std::vector<std::uint32_t> perm = rng.permutation(r.num_pages);

  GridBuilder g("random_touch");
  std::vector<LanePage> pages;
  for (std::uint64_t i = 0; i < perm.size(); i += 32) {
    pages.clear();
    std::uint64_t hi = std::min<std::uint64_t>(perm.size(), i + 32);
    for (std::uint64_t j = i; j < hi; ++j) {
      pages.push_back(lane_page(r.first_page + perm[j]));
    }
    g.new_warp().add(pages, /*write=*/true, compute_ns_);
  }
  sim.launch(g.build(static_cast<double>(r.num_pages)));
}

}  // namespace uvmsim
