// Ablation 8: thrashing detection and mitigation (the driver's
// perf_thrashing module) against the paper's Fig. 8 worst case — data
// evicted immediately before being re-faulted.
//
// Workloads: (a) random page-touch at deep oversubscription without
// prefetching — the maximal block-churn storm of §V-A3; (b) an iterative
// ping-pong kernel whose working set exceeds GPU memory, so stock LRU
// evicts exactly what the next iteration needs.
#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"
#include "workloads/workload.h"

namespace {

using namespace uvmsim;

SimConfig thrash_cfg(std::uint64_t gpu, ThrashMitigation m, bool enabled) {
  SimConfig cfg;
  cfg.set_gpu_memory(gpu);
  cfg.enable_fault_log = false;
  cfg.driver.prefetch = PrefetchMode::Off;
  cfg.driver.thrashing.enabled = enabled;
  cfg.driver.thrashing.mitigation = m;
  cfg.driver.thrashing.window = 2 * kMillisecond;
  cfg.driver.thrashing.threshold = 2;
  return cfg;
}

// Iterative sweep over a working set slightly larger than GPU memory: each
// iteration re-reads everything, so LRU evicts the pages the next iteration
// needs first (ping-pong).
RunResult run_pingpong(const SimConfig& cfg, std::uint32_t iters) {
  Simulator sim(cfg);
  auto bytes = static_cast<std::uint64_t>(
      1.25 * static_cast<double>(cfg.gpu_memory()));
  RangeId rid = sim.malloc_managed(bytes, "workset");
  const VaRange& r = sim.address_space().range(rid);
  for (std::uint32_t it = 0; it < iters; ++it) {
    GridBuilder g("sweep_iter");
    for (std::uint64_t p = 0; p < r.num_pages; p += 32) {
      auto n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(32, r.num_pages - p));
      g.new_warp().add_run(r.first_page + p, n, false, 500);
    }
    sim.launch(g.build(static_cast<double>(r.num_pages)));
  }
  return sim.run();
}

}  // namespace

int main() {
  using namespace uvmsim::bench;

  const std::uint64_t gpu = std::min<std::uint64_t>(gpu_bytes(), 64ull << 20);

  struct Mode {
    const char* name;
    ThrashMitigation m;
    bool enabled;
  };
  const Mode modes[] = {
      {"off", ThrashMitigation::None, false},
      {"detect_only", ThrashMitigation::None, true},
      {"pin", ThrashMitigation::Pin, true},
      {"throttle", ThrashMitigation::Throttle, true},
  };

  // --- Part A: random @175 % oversub, prefetch off ---
  {
    Table t({"mitigation", "kernel_time", "evictions", "bytes_h2d",
             "thrash_events", "pinned_pages", "throttles"});
    SimDuration t_off = 0, t_pin = 0;
    for (const Mode& mode : modes) {
      SimConfig cfg = thrash_cfg(gpu, mode.m, mode.enabled);
      Simulator sim(cfg);
      auto wl = make_workload(
          "random", static_cast<std::uint64_t>(
                        1.75 * static_cast<double>(cfg.gpu_memory())));
      wl->setup(sim);
      RunResult r = sim.run();
      if (std::string(mode.name) == "off") t_off = r.total_kernel_time();
      if (std::string(mode.name) == "pin") t_pin = r.total_kernel_time();
      t.add_row({mode.name, format_duration(r.total_kernel_time()),
                 fmt(r.counters.evictions), format_bytes(r.bytes_h2d),
                 fmt(sim.driver().thrashing().thrash_events()),
                 fmt(r.counters.thrash_pinned_pages),
                 fmt(r.counters.thrash_throttles)});
    }
    t.print("Ablation 8A — random @175 % oversub (prefetch off)");
    shape_check("pin mitigation defuses the block-churn storm",
                t_pin < t_off);
  }

  // --- Part B: iterative ping-pong working set ---
  {
    Table t({"mitigation", "kernel_time", "evictions", "pages_evicted",
             "pinned_pages"});
    SimDuration t_off = 0, t_pin = 0;
    for (const Mode& mode : modes) {
      SimConfig cfg = thrash_cfg(gpu, mode.m, mode.enabled);
      // The ping-pong period is one whole iteration (~100 ms at this
      // scale), so the detector needs an iteration-scale window.
      cfg.driver.thrashing.window = 500 * kMillisecond;
      cfg.driver.thrashing.decay = 5 * kSecond;
      RunResult r = run_pingpong(cfg, 4);
      if (std::string(mode.name) == "off") t_off = r.total_kernel_time();
      if (std::string(mode.name) == "pin") t_pin = r.total_kernel_time();
      t.add_row({mode.name, format_duration(r.total_kernel_time()),
                 fmt(r.counters.evictions), fmt(r.counters.pages_evicted),
                 fmt(r.counters.thrash_pinned_pages)});
    }
    t.print("Ablation 8B — iterative sweep @125 % working set");
    shape_check("pinning breaks the LRU ping-pong cycle", t_pin < t_off);
  }
  return 0;
}
