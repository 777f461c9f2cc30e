// Figure 3 reproduction: total kernel time and driver-time breakdown
// (pre/post-processing, fault servicing, replay policy) across data sizes
// for the regular and random page-touch kernels, with prefetching DISABLED
// and the default (batch-flush) replay policy.
//
// Paper claims (§III-C):
//  * a 400-600 us floor for data volumes under ~100 KB;
//  * roughly linear growth at larger sizes (faults scale with pages);
//  * pre/post-processing is negligible;
//  * random is slower than regular with shifted proportions, and the replay
//    policy takes a significant share for random access.
#include <array>

#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"

int main(int argc, char** argv) {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  // Absolute sizes like the paper's sweep (8 KB ... 75 % of GPU memory).
  std::vector<std::uint64_t> sizes = {8ull << 10, 64ull << 10, 512ull << 10,
                                      4ull << 20, 32ull << 20};
  sizes.push_back(static_cast<std::uint64_t>(0.75 * static_cast<double>(gpu_bytes())));
  if (fast_mode()) sizes.resize(3);

  std::array<double, 2> small_total{};  // per-pattern total at smallest size
  std::vector<double> totals_regular;

  // Replay is charged per replayed uTLB/VA-range group (one bin = one
  // block's worth of faults): random scatters a batch across many more
  // blocks than regular, so its replay cost scales with that spread like
  // the paper's driver instead of paying one flat flush+replay per pass.
  const SimDuration replay_per_group = 2 * kMicrosecond;

  int wi = 0;
  for (const std::string wl : {"regular", "random"}) {
    Table t({"bytes", "kernel_total", "pre_process", "service", "replay_policy",
             "faults"});
    for (std::uint64_t bytes : sizes) {
      SimConfig cfg = base_config();
      cfg.driver.prefetch = PrefetchMode::Off;
      cfg.costs.replay_per_group = replay_per_group;
      RunResult r = run_workload(cfg, wl, bytes);

      double total = to_us(r.total_kernel_time());
      if (bytes == sizes.front()) small_total[static_cast<std::size_t>(wi)] = total;
      if (wl == "regular") totals_regular.push_back(total);

      t.add_row({format_bytes(bytes), format_duration(r.total_kernel_time()),
                 format_duration(r.profiler.total(CostCategory::PreProcess)),
                 format_duration(r.profiler.service_total()),
                 format_duration(r.profiler.total(CostCategory::ReplayPolicy)),
                 fmt(r.counters.faults_fetched)});
    }
    t.print("Fig. 3 — " + wl + " fault cost scaling & breakdown (prefetch off)");
    ++wi;
  }

  shape_check("small sizes pay a constant UVM floor (~400-600 us at 8 KB)",
              small_total[0] >= 300.0 && small_total[0] <= 900.0);
  shape_check("cost grows roughly linearly with data volume",
              roughly_monotonic_increasing(totals_regular, 0.10));

  // Direct comparison at one representative size. Must span many VA blocks
  // (fast mode's sweep tops out below one block) so the patterns can differ
  // in how widely each fault batch scatters across replayed groups.
  std::uint64_t mid = std::max<std::uint64_t>(sizes[sizes.size() - 2],
                                              32ull << 20);
  SimConfig cfg = base_config();
  cfg.driver.prefetch = PrefetchMode::Off;
  cfg.costs.replay_per_group = replay_per_group;
  RunResult rr = run_workload(cfg, "regular", mid);
  RunResult rn = run_workload(cfg, "random", mid);
  shape_check("random slower than regular at the same size",
              rn.total_kernel_time() > rr.total_kernel_time());
  shape_check("pre-processing is a small share of driver time (regular)",
              rr.profiler.total(CostCategory::PreProcess) <
                  rr.profiler.grand_total() / 4);
  double replay_share_rand =
      static_cast<double>(rn.profiler.total(CostCategory::ReplayPolicy)) /
      static_cast<double>(rn.profiler.grand_total());
  shape_check("replay policy is a visible cost for random access (>= 1 %)",
              replay_share_rand >= 0.01);
  // The paper observes the replay policy working harder under random
  // access: each batch fans out over ~3x more VA-block groups than
  // regular's, and every replayed group costs driver bookkeeping. With the
  // historical flat per-batch charge both patterns paid identical replay
  // cost; per-group charging makes the scatter visible.
  shape_check("random access pays more absolute replay cost than regular",
              rn.profiler.total(CostCategory::ReplayPolicy) >
                  rr.profiler.total(CostCategory::ReplayPolicy));
  SimConfig flat = cfg;
  flat.costs.replay_per_group = 0;
  RunResult rn_flat = run_workload(flat, "random", mid);
  double replay_share_flat =
      static_cast<double>(rn_flat.profiler.total(CostCategory::ReplayPolicy)) /
      static_cast<double>(rn_flat.profiler.grand_total());
  shape_check("per-group charging raises random's replay share over the "
              "flat per-batch charge",
              replay_share_rand > replay_share_flat);

  if (std::string path = trace_out_path(argc, argv); !path.empty()) {
    // One traced re-run of the representative configuration, so the fault
    // cost breakdown can be inspected span by span in Perfetto.
    SimConfig tc = base_config();
    tc.driver.prefetch = PrefetchMode::Off;
    run_workload_traced(tc, "regular", mid, path);
  }
  return 0;
}
