#include "workloads/hpgmg.h"

#include <algorithm>
#include <array>
#include <vector>

namespace uvmsim {

HpgmgWorkload::HpgmgWorkload(std::uint64_t finest_bytes, std::uint32_t levels,
                             std::uint32_t vcycles, std::uint32_t compute_ns)
    : finest_bytes_(std::max<std::uint64_t>(finest_bytes, 64 * kPageSize)),
      levels_(std::clamp<std::uint32_t>(levels, 2, 6)),
      vcycles_(std::max<std::uint32_t>(vcycles, 1)),
      compute_ns_(compute_ns) {}

std::uint64_t HpgmgWorkload::finest_for_bytes(std::uint64_t target_bytes) {
  // sum_{i} f/4^i ~= 4f/3  =>  f = 3/4 * target.
  return target_bytes * 3 / 4;
}

std::uint64_t HpgmgWorkload::total_bytes() const {
  std::uint64_t total = 0;
  std::uint64_t sz = finest_bytes_;
  for (std::uint32_t l = 0; l < levels_; ++l) {
    total += std::max<std::uint64_t>(sz, kPageSize);
    sz /= 4;
  }
  return total;
}

void HpgmgWorkload::smooth(Simulator& sim, const VaRange& r) {
  GridBuilder g("hpgmg_smooth_" + r.name);
  std::vector<LanePage> pages;
  constexpr std::uint64_t kChunks = 4;
  for (std::uint64_t j0 = 0; j0 < r.num_pages; j0 += kChunks) {
    AccessStream& s = g.new_warp();
    std::uint64_t hi = std::min(r.num_pages, j0 + kChunks);
    for (std::uint64_t j = j0; j < hi; ++j) {
      pages.clear();
      pages.push_back(lane_page(r.first_page + j));
      if (j > 0) pages.push_back(lane_page(r.first_page + j - 1));
      if (j + 1 < r.num_pages) pages.push_back(lane_page(r.first_page + j + 1));
      s.add(pages, /*write=*/true, compute_ns_);
    }
  }
  sim.launch(g.build(static_cast<double>(r.num_pages) * 8.0));
}

void HpgmgWorkload::restrict_level(Simulator& sim, const VaRange& fine,
                                   const VaRange& coarse) {
  GridBuilder g("hpgmg_restrict_" + fine.name);
  std::vector<LanePage> reads;
  for (std::uint64_t cj = 0; cj < coarse.num_pages; ++cj) {
    AccessStream& s = g.new_warp();
    reads.clear();
    for (std::uint64_t k = 0; k < 4; ++k) {
      std::uint64_t fj = cj * 4 + k;
      if (fj < fine.num_pages) {
        reads.push_back(lane_page(fine.first_page + fj));
      }
    }
    if (reads.empty()) reads.push_back(lane_page(fine.first_page));
    s.add(reads, /*write=*/false, compute_ns_);
    const std::array<LanePage, 1> w = {lane_page(coarse.first_page + cj)};
    s.add(w, /*write=*/true, compute_ns_ / 2);
  }
  sim.launch(g.build(static_cast<double>(fine.num_pages) * 2.0));
}

void HpgmgWorkload::prolong_level(Simulator& sim, const VaRange& coarse,
                                  const VaRange& fine) {
  GridBuilder g("hpgmg_prolong_" + fine.name);
  std::vector<LanePage> writes;
  for (std::uint64_t cj = 0; cj < coarse.num_pages; ++cj) {
    AccessStream& s = g.new_warp();
    const std::array<LanePage, 1> rd = {lane_page(coarse.first_page + cj)};
    s.add(rd, /*write=*/false, compute_ns_ / 2);
    writes.clear();
    for (std::uint64_t k = 0; k < 4; ++k) {
      std::uint64_t fj = cj * 4 + k;
      if (fj < fine.num_pages) {
        writes.push_back(lane_page(fine.first_page + fj));
      }
    }
    if (writes.empty()) writes.push_back(lane_page(fine.first_page));
    s.add(writes, /*write=*/true, compute_ns_);
  }
  sim.launch(g.build(static_cast<double>(fine.num_pages) * 2.0));
}

void HpgmgWorkload::coarse_solve(Simulator& sim, const VaRange& r, Rng& rng) {
  // Scattered point relaxations over the coarse level: the random-like
  // segment of the hpgmg pattern.
  GridBuilder g("hpgmg_coarse_solve");
  std::uint64_t touches = r.num_pages * 4;
  constexpr std::uint64_t kPerWarp = 8;
  for (std::uint64_t i = 0; i < touches; i += kPerWarp) {
    AccessStream& s = g.new_warp();
    for (std::uint64_t k = 0; k < kPerWarp && i + k < touches; ++k) {
      const std::array<LanePage, 1> p = {
          lane_page(r.first_page + rng.next_below(r.num_pages))};
      s.add(p, /*write=*/true, compute_ns_);
    }
  }
  sim.launch(g.build(static_cast<double>(touches) * 4.0));
}

void HpgmgWorkload::setup(Simulator& sim) {
  // Create every range first: range references are invalidated by later
  // allocations.
  std::vector<RangeId> ids;
  std::uint64_t sz = finest_bytes_;
  for (std::uint32_t l = 0; l < levels_; ++l) {
    ids.push_back(sim.malloc_managed(std::max<std::uint64_t>(sz, kPageSize),
                                     "level" + std::to_string(l)));
    sz /= 4;
  }
  std::vector<const VaRange*> lv;
  for (RangeId id : ids) lv.push_back(&sim.address_space().range(id));
  Rng rng = sim.rng().fork();

  for (std::uint32_t c = 0; c < vcycles_; ++c) {
    // Down-sweep.
    for (std::uint32_t l = 0; l + 1 < levels_; ++l) {
      smooth(sim, *lv[l]);
      restrict_level(sim, *lv[l], *lv[l + 1]);
    }
    coarse_solve(sim, *lv[levels_ - 1], rng);
    // Up-sweep.
    for (std::uint32_t l = levels_ - 1; l-- > 0;) {
      prolong_level(sim, *lv[l + 1], *lv[l]);
      smooth(sim, *lv[l]);
    }
  }
}

}  // namespace uvmsim
