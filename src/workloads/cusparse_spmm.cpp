#include "workloads/cusparse_spmm.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace uvmsim {

CusparseSpmm::CusparseSpmm(std::uint64_t n, double density, std::uint64_t k,
                           std::uint32_t compute_ns)
    : n_(std::max<std::uint64_t>(n, 256)),
      density_(std::clamp(density, 1e-4, 1.0)),
      k_(std::max<std::uint64_t>(k, 16)),
      compute_ns_(compute_ns) {}

std::uint64_t CusparseSpmm::n_for_bytes(std::uint64_t target_bytes,
                                        double density, std::uint64_t k) {
  // bytes ~= 4 n^2 (dense) + 8 n^2 d (csr) + 8 n k (B+C)
  double a = 4.0 + 8.0 * density;
  double b = 8.0 * static_cast<double>(k);
  double n = (-b + std::sqrt(b * b + 4.0 * a * static_cast<double>(target_bytes))) /
             (2.0 * a);
  return std::max<std::uint64_t>(256, static_cast<std::uint64_t>(n));
}

std::uint64_t CusparseSpmm::total_bytes() const {
  return n_ * n_ * sizeof(float)  // dense
         + nnz() * 8              // CSR values + column indices
         + 2 * n_ * k_ * sizeof(float);  // B and C
}

void CusparseSpmm::setup(Simulator& sim) {
  RangeId rdense = sim.malloc_managed(n_ * n_ * sizeof(float), "dense");
  RangeId rcsr = sim.malloc_managed(nnz() * 8, "csr");
  RangeId rb = sim.malloc_managed(n_ * k_ * sizeof(float), "B");
  RangeId rc = sim.malloc_managed(n_ * k_ * sizeof(float), "C");
  const VaRange& dense = sim.address_space().range(rdense);
  const VaRange& csr = sim.address_space().range(rcsr);
  const VaRange& B = sim.address_space().range(rb);
  const VaRange& C = sim.address_space().range(rc);

  Rng rng = sim.rng().fork();

  // --- Kernel 1: dense -> CSR conversion (regular sweep) ---
  {
    GridBuilder g("dense_to_csr");
    constexpr std::uint64_t kDensePerWarp = 8;
    for (std::uint64_t j0 = 0; j0 < dense.num_pages; j0 += kDensePerWarp) {
      AccessStream& s = g.new_warp();
      auto count = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kDensePerWarp, dense.num_pages - j0));
      s.add_run(dense.first_page + j0, count, /*write=*/false, compute_ns_);
      // CSR output advances proportionally to the scan position.
      std::uint64_t cj = j0 * csr.num_pages / dense.num_pages;
      const std::array<LanePage, 1> w = {
          lane_page(csr.first_page + std::min(cj, csr.num_pages - 1))};
      s.add(w, /*write=*/true, compute_ns_ / 2);
    }
    sim.launch(g.build(static_cast<double>(n_ * n_)));
  }

  // --- Kernel 2: SpMM, C = S * B ---
  {
    GridBuilder g("spmm");
    const std::uint64_t nnz_per_row = std::max<std::uint64_t>(nnz() / n_, 1);
    const std::uint64_t row_bytes_b = k_ * sizeof(float);
    constexpr std::uint64_t kRowsPerWarp = 4;
    // Cap the sampled B pages per row so streams stay bounded for very
    // dense matrices; the page-granularity pattern is preserved.
    const std::uint64_t samples = std::min<std::uint64_t>(nnz_per_row, 8);
    std::vector<LanePage> reads;
    std::vector<LanePage> writes;
    for (std::uint64_t r0 = 0; r0 < n_; r0 += kRowsPerWarp) {
      AccessStream& s = g.new_warp();
      std::uint64_t hi = std::min(n_, r0 + kRowsPerWarp);
      for (std::uint64_t r = r0; r < hi; ++r) {
        reads.clear();
        // This row's CSR segment.
        std::uint64_t csr_off = r * nnz_per_row * 8;
        append_pages_for_bytes(reads, csr.first_page,
                               std::min(csr_off, csr.bytes - 8), 8);
        // Random B rows named by the sparse columns.
        for (std::uint64_t i = 0; i < samples; ++i) {
          std::uint64_t col = rng.next_below(n_);
          append_pages_for_bytes(reads, B.first_page, col * row_bytes_b,
                                 row_bytes_b);
        }
        s.add(reads, /*write=*/false, compute_ns_);
        writes.clear();
        append_pages_for_bytes(writes, C.first_page, r * row_bytes_b,
                               row_bytes_b);
        s.add(writes, /*write=*/true, compute_ns_ / 2);
      }
    }
    sim.launch(g.build(2.0 * static_cast<double>(nnz()) *
                       static_cast<double>(k_)));
  }
}

}  // namespace uvmsim
