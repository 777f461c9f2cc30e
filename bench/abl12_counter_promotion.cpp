// Ablation 12: access-counter-driven promotion — the adaptive tier between
// paged migration and zero-copy.
//
// Grounding: the paper (§VI-B) suggests access-counter information "could
// also potentially be used for better prefetching inference"; NVIDIA's
// driver ships exactly this path (uvm_perf_access_counters migrates
// frequently-accessed remote regions to local memory). Combined with remote
// mapping this forms a three-way design space over a skewed workload:
//   * paged migration — every touched page migrates (thrashes when the
//     table oversubscribes memory);
//   * pure zero-copy — nothing migrates (hot data pays the interconnect on
//     every access);
//   * zero-copy + promotion — cold data stays remote, hot regions migrate.
//
// Workload: skewed table lookups (a small hot region re-read constantly,
// a large cold region sampled sparsely) over a table larger than GPU
// memory — the BFS/EMOGI access class.
#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"
#include "workloads/workload.h"

namespace {

using namespace uvmsim;

KernelSpec skewed_lookups(const VaRange& table, Rng& rng,
                          std::uint64_t lookups) {
  GridBuilder g("skewed_lookups");
  std::uint64_t hot_pages = std::max<std::uint64_t>(table.num_pages / 64, 16);
  std::vector<VirtPage> pages;
  for (std::uint64_t i = 0; i < lookups; i += 16) {
    AccessStream& s = g.new_warp();
    pages.clear();
    for (std::uint64_t k = 0; k < 16 && i + k < lookups; ++k) {
      // 90 % of lookups hit the hot head of the table.
      bool hot = rng.next_below(10) != 0;
      std::uint64_t page = hot ? rng.next_below(hot_pages)
                               : rng.next_below(table.num_pages);
      pages.push_back(table.first_page + page);
    }
    s.add(pages, /*write=*/false, 500);
  }
  return g.build(static_cast<double>(lookups));
}

}  // namespace

int main() {
  using namespace uvmsim::bench;

  SimConfig base = base_config();
  base.set_gpu_memory(std::min<std::uint64_t>(gpu_bytes(), 64ull << 20));

  const auto table_bytes = static_cast<std::uint64_t>(
      1.5 * static_cast<double>(base.gpu_memory()));
  const std::uint64_t lookups = 200000;

  struct Mode {
    const char* name;
    bool remote;
    bool promotion;
  };
  const Mode modes[] = {
      {"paged_migration", false, false},
      {"zero_copy", true, false},
      {"zero_copy+promotion", true, true},
  };

  Table t({"mode", "kernel_time", "faults", "evictions", "bytes_h2d",
           "promoted_pages", "remote_accesses"});
  SimDuration t_paged = 0, t_zero = 0, t_promo = 0;

  for (const Mode& m : modes) {
    SimConfig cfg = base;
    cfg.access_counters.threshold = 64;
    cfg.driver.access_counter_migration = m.promotion;

    Simulator sim(cfg);
    RangeId rid = sim.malloc_managed(table_bytes, "table");
    if (m.remote) {
      MemAdvise a;
      a.remote_map = true;
      sim.mem_advise(rid, a);
    }
    Rng rng = sim.rng().fork();
    sim.launch(skewed_lookups(sim.address_space().range(rid), rng, lookups));
    RunResult r = sim.run();

    if (std::string(m.name) == "paged_migration") t_paged = r.total_kernel_time();
    if (std::string(m.name) == "zero_copy") t_zero = r.total_kernel_time();
    if (std::string(m.name) == "zero_copy+promotion") {
      t_promo = r.total_kernel_time();
    }
    t.add_row({m.name, format_duration(r.total_kernel_time()),
               fmt(r.counters.faults_fetched), fmt(r.counters.evictions),
               format_bytes(r.bytes_h2d),
               fmt(r.counters.counter_promoted_pages),
               fmt(sim.gpu().remote_accesses())});
  }
  t.print("Ablation 12 — skewed lookups over a 150 % table: migration vs "
          "zero-copy vs promotion");

  shape_check("zero-copy beats paged migration for sparse skewed lookups",
              t_zero < t_paged);
  shape_check("promoting the hot region beats pure zero-copy",
              t_promo < t_zero);
  return 0;
}
