// Ablation 4: adaptive prefetching (paper §VI-B, "Adaptive prefetching").
//
// The heuristic the paper sketches: aggressive (1 %) prefetching while
// undersubscribed — where it rivals explicit transfer — and throttled or
// disabled once eviction pressure appears. Compared against the fixed 51 %
// default and fixed extremes on both sides of the memory boundary.
#include <iterator>

#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  struct Row {
    const char* name;
    PrefetchMode mode;
    std::uint32_t threshold;
  };
  const Row rows[] = {
      {"fixed_51 (default)", PrefetchMode::Tree, 51},
      {"fixed_1 (aggressive)", PrefetchMode::Tree, 1},
      {"prefetch_off", PrefetchMode::Off, 51},
      {"adaptive", PrefetchMode::Adaptive, 51},
  };

  for (const std::string wl : {"regular", "random"}) {
    for (double ratio : {0.5, 1.3}) {
      auto target = static_cast<std::uint64_t>(
          ratio * static_cast<double>(gpu_bytes()));
      Table t({"mode", "kernel_time", "faults", "prefetched", "evictions",
               "bytes_h2d"});
      SimDuration kernel_time[std::size(rows)] = {};
      for (std::size_t i = 0; i < std::size(rows); ++i) {
        SimConfig cfg = base_config();
        cfg.driver.prefetch = rows[i].mode;
        cfg.driver.prefetch_threshold = rows[i].threshold;
        RunResult r = run_workload(cfg, wl, target);
        kernel_time[i] = r.total_kernel_time();
        t.add_row({rows[i].name, format_duration(r.total_kernel_time()),
                   fmt(r.counters.faults_fetched),
                   fmt(r.counters.pages_prefetched),
                   fmt(r.counters.evictions), format_bytes(r.bytes_h2d)});
      }
      const auto [best_fixed_under, aggressive, off_time, adaptive_time] =
          kernel_time;
      t.print("Ablation 4 — " + wl + " @ " + fmt(100.0 * ratio, 3) +
              " % of GPU memory");

      if (ratio < 1.0) {
        shape_check("(" + wl + " undersub) adaptive tracks the aggressive "
                    "setting (within 25 %)",
                    adaptive_time < aggressive + aggressive / 4 &&
                        adaptive_time <= best_fixed_under * 1.25);
      } else {
        shape_check("(" + wl + " oversub) adaptive avoids the worst of "
                    "aggressive prefetching",
                    adaptive_time < aggressive ||
                        adaptive_time <= off_time * 2);
      }
    }
  }
  return 0;
}
