// Ablation 11: pipelined (asynchronous) migrations vs the stock blocking
// driver.
//
// The measured driver serializes: it waits for each VABlock's migration
// before servicing the next bin, so the interconnect and the CPU take turns
// idling — visible in Fig. 3/4 as migrate time dominating the driver stack.
// This extension issues copies asynchronously and lets servicing continue;
// only the replay (which resumes warps onto the data) waits for the last
// outstanding copy. An upper-bound estimate of what driver-side overlap
// could recover.
#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  const std::uint64_t target = static_cast<std::uint64_t>(
      0.5 * static_cast<double>(gpu_bytes()));

  for (const std::string wl : {"regular", "random", "tealeaf"}) {
    Table t({"driver", "prefetch", "kernel_time", "speedup",
             "driver_busy", "faults"});
    SimDuration t_blocking = 0, t_pipelined = 0;

    for (bool prefetch : {true, false}) {
      SimDuration base = 0;
      for (bool pipelined : {false, true}) {
        SimConfig cfg = base_config();
        cfg.driver.prefetch = prefetch ? PrefetchMode::Tree : PrefetchMode::Off;
        cfg.driver.pipelined_migrations = pipelined;
        RunResult r = run_workload(cfg, wl, target);
        if (!pipelined) base = r.total_kernel_time();
        if (prefetch) {
          (pipelined ? t_pipelined : t_blocking) = r.total_kernel_time();
        }
        t.add_row({pipelined ? "pipelined" : "blocking",
                   prefetch ? "on" : "off",
                   format_duration(r.total_kernel_time()),
                   pipelined ? fmt(slowdown(r.total_kernel_time(), base), 3) + "x"
                             : "1x",
                   format_duration(r.profiler.grand_total()),
                   fmt(r.counters.faults_fetched)});
      }
    }
    t.print("Ablation 11 — " + wl + ": blocking vs pipelined migrations");

    shape_check("(" + wl + ") overlapping copies with servicing speeds up "
                "the run",
                t_pipelined < t_blocking);
  }
  return 0;
}
