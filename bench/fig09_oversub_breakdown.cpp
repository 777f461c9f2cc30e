// Figure 9 reproduction: driver cost breakdown for oversubscribed problem
// sizes, regular vs random.
//
// Paper claims (§V-A3):
//  * access patterns differ by an order of magnitude in performance under
//    oversubscription — the 4 KB-demand vs 2 MB-allocation asymmetry makes
//    random exhaust GPU memory with mostly-empty blocks;
//  * random moves far more data than its footprint (paper: 504 GB for a
//    32 GB problem at ~267 % of GPU memory) while regular moves about its
//    footprint;
//  * disabling prefetching improves oversubscribed performance: prefetch
//    population is speculative and backs whole 2 MB root chunks, which under
//    pressure evict before the kernel consumes them, while pure demand
//    paging gets fine-grained sub-chunk backing (asserted below for random,
//    where the effect is strongest).
#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"
#include "sweep_runner.h"

int main(int argc, char** argv) {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  SimConfig cfg = base_config();
  // The random thrash is the expensive part; cap the machine so absolute
  // work stays bounded (ratios are what matter).
  cfg.set_gpu_memory(std::min<std::uint64_t>(gpu_bytes(), 64ull << 20));
  cfg.enable_fault_log = false;

  Table t({"oversub", "pattern", "prefetch", "kernel_time", "map+migrate",
           "evict", "faults", "evictions", "h2d_over_footprint"});

  SimDuration time_regular_pf = 0, time_random_pf = 0, time_random_nopf = 0;
  double amp_regular = 0, amp_random = 0;
  std::uint64_t evict_regular = 0, evict_random_nopf = 0;

  std::vector<double> ratios = fast_mode() ? std::vector<double>{2.0}
                                           : std::vector<double>{1.5, 2.0};
  struct Point {
    double ratio;
    std::string wl;
    bool prefetch;
  };
  std::vector<Point> points;
  for (double ratio : ratios) {
    for (const std::string wl : {"regular", "random"}) {
      for (bool prefetch : {true, false}) {
        points.push_back({ratio, wl, prefetch});
      }
    }
  }

  SweepRunner runner;
  auto results = runner.sweep(points, [&cfg](const Point& p) {
    SimConfig c = cfg;
    c.driver.prefetch = p.prefetch ? PrefetchMode::Tree : PrefetchMode::Off;
    auto target = static_cast<std::uint64_t>(
        p.ratio * static_cast<double>(cfg.gpu_memory()));
    return run_workload(c, p.wl, target);
  });

  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const RunResult& r = results[i];
    double amp = static_cast<double>(r.bytes_h2d) /
                 static_cast<double>(r.total_bytes);
    if (p.ratio == ratios.back()) {
      if (p.wl == "regular" && p.prefetch) {
        time_regular_pf = r.total_kernel_time();
        amp_regular = amp;
      }
      if (p.wl == "regular" && !p.prefetch) {
        evict_regular = r.counters.evictions;
      }
      if (p.wl == "random" && p.prefetch) {
        time_random_pf = r.total_kernel_time();
        amp_random = amp;
      }
      if (p.wl == "random" && !p.prefetch) {
        time_random_nopf = r.total_kernel_time();
        evict_random_nopf = r.counters.evictions;
      }
    }
    t.add_row(
        {fmt(100.0 * p.ratio, 3) + "%", p.wl, p.prefetch ? "on" : "off",
         format_duration(r.total_kernel_time()),
         format_duration(r.profiler.total(CostCategory::ServiceMap) +
                         r.profiler.total(CostCategory::ServiceMigrate)),
         format_duration(r.profiler.total(CostCategory::Eviction)),
         fmt(r.counters.faults_fetched), fmt(r.counters.evictions),
         fmt(amp, 3)});
  }
  t.print("Fig. 9 — oversubscribed breakdown, regular vs random");

  shape_check("random is many times slower than regular when oversubscribed",
              time_random_pf > 3 * time_regular_pf);
  shape_check("random's H2D traffic is amplified far beyond its footprint "
              "(regular moves ~1x)",
              amp_random > 3.0 && amp_regular < 1.5);
  shape_check("4KB-demand/2MB-allocation asymmetry: random evicts orders of "
              "magnitude more often than regular",
              evict_random_nopf > 10 * std::max<std::uint64_t>(evict_regular, 1));
  shape_check("disabling prefetching improves oversubscribed performance "
              "(random)",
              time_random_nopf < time_random_pf);

  if (std::string path = trace_out_path(argc, argv); !path.empty()) {
    // One traced re-run of the heaviest point (random, 2x oversubscription)
    // so the eviction/replay churn can be inspected span by span.
    auto target = static_cast<std::uint64_t>(
        ratios.back() * static_cast<double>(cfg.gpu_memory()));
    run_workload_traced(cfg, "random", target, path);
  }
  return 0;
}
