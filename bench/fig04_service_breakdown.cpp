// Figure 4 reproduction: the fault-service cost split at small data sizes —
// Map Pages vs Migrate Pages vs PMA Alloc Pages (prefetching disabled, as in
// Fig. 3's setup).
//
// Paper claims (§III-D):
//  * PMA allocation is a large but variable share at small sizes (the RM
//    call is latency-bound), and becomes constant/negligible at large sizes
//    thanks to over-allocation caching;
//  * migration dominates as sizes grow;
//  * batches whose faults coalesce into fewer VABlocks service cheaper
//    (random pays more than regular for the same page count).
#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  std::vector<std::uint64_t> sizes = {8ull << 10,  32ull << 10, 128ull << 10,
                                      512ull << 10, 2ull << 20,  16ull << 20};
  if (fast_mode()) sizes.resize(4);

  std::vector<double> pma_share;
  for (const std::string wl : {"regular", "random"}) {
    Table t({"bytes", "pma_alloc", "migrate", "map", "zero", "service_total",
             "pma_share_pct"});
    for (std::uint64_t bytes : sizes) {
      SimConfig cfg = base_config();
      cfg.driver.prefetch = PrefetchMode::Off;
      // Steady-state service costs are the subject here; the one-time
      // cold-start floor belongs to Fig. 3.
      cfg.costs.driver_cold_start = 0;
      RunResult r = run_workload(cfg, wl, bytes);

      SimDuration pma = r.profiler.total(CostCategory::ServicePmaAlloc);
      SimDuration mig = r.profiler.total(CostCategory::ServiceMigrate);
      SimDuration map = r.profiler.total(CostCategory::ServiceMap);
      SimDuration zero = r.profiler.total(CostCategory::ServiceZero);
      SimDuration service = r.profiler.service_total();
      double share = service ? 100.0 * static_cast<double>(pma) /
                                   static_cast<double>(service)
                             : 0.0;
      if (wl == "regular") pma_share.push_back(share);

      t.add_row({format_bytes(bytes), format_duration(pma),
                 format_duration(mig), format_duration(map),
                 format_duration(zero), format_duration(service),
                 fmt(share, 3)});
    }
    t.print("Fig. 4 — " + wl + " service cost breakdown");
  }

  shape_check("PMA alloc is a significant share at the smallest size",
              pma_share.front() > 20.0);
  shape_check("PMA alloc share collapses at large sizes (chunk caching)",
              pma_share.back() < pma_share.front() / 2);

  // Coalescing claim: same page count, one VABlock vs many VABlocks.
  SimConfig cfg = base_config();
  cfg.driver.prefetch = PrefetchMode::Off;
  RunResult reg = run_workload(cfg, "regular", 2ull << 20);
  RunResult rnd = run_workload(cfg, "random", 2ull << 20);
  shape_check("scattered service (random) costs more migrate time than "
              "coalesced (regular) for equal pages",
              rnd.profiler.total(CostCategory::ServiceMigrate) >
                  reg.profiler.total(CostCategory::ServiceMigrate));
  return 0;
}
