// Ablation 7: the other UVM access behaviours (paper §III-A) as performance
// hints — remote mapping and read-only duplication — against stock paged
// migration, plus explicit bulk prefetch (cudaMemPrefetchAsync).
//
// Grounding: the paper restricts its measurement to paged migration but
// names the alternatives; related work it cites evaluates them (hints [12],
// zero-copy graph traversal [13]). This ablation quantifies when each wins
// in the same simulator:
//  * read-mostly duplication removes eviction writebacks for read-only data;
//  * remote mapping avoids migration/eviction entirely at the price of
//    per-access interconnect latency — a win only for sparse access;
//  * explicit prefetch turns fault storms into one coalesced transfer.
#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"

namespace {

using namespace uvmsim;

// Sparse reader: touches `fraction` of the range's pages randomly.
RunResult run_sparse_reader(SimConfig cfg, double oversub, double fraction,
                            bool remote, bool prefetch_first) {
  Simulator sim(cfg);
  auto bytes = static_cast<std::uint64_t>(
      oversub * static_cast<double>(cfg.gpu_memory()));
  RangeId rid = sim.malloc_managed(bytes, "table");
  if (remote) {
    MemAdvise a;
    a.remote_map = true;
    sim.mem_advise(rid, a);
  }
  if (prefetch_first) sim.prefetch_async(rid);

  const VaRange& r = sim.address_space().range(rid);
  Rng rng = sim.rng().fork();
  auto touches = static_cast<std::uint64_t>(
      fraction * static_cast<double>(r.num_pages));

  GridBuilder g("sparse_reader");
  std::vector<LanePage> pages;
  for (std::uint64_t i = 0; i < touches; i += 16) {
    pages.clear();
    for (std::uint64_t k = 0; k < 16 && i + k < touches; ++k) {
      pages.push_back(lane_page(r.first_page + rng.next_below(r.num_pages)));
    }
    g.new_warp().add(pages, /*write=*/false, 600);
  }
  sim.launch(g.build(static_cast<double>(touches)));
  return sim.run();
}

}  // namespace

int main() {
  using namespace uvmsim::bench;

  SimConfig cfg = base_config();
  cfg.set_gpu_memory(std::min<std::uint64_t>(gpu_bytes(), 64ull << 20));

  // --- Part A: sparse random reads over an oversubscribed table ---
  {
    Table t({"access_mode", "touched_pct", "kernel_time", "faults",
             "evictions", "bytes_h2d", "pages_remote_mapped"});
    SimDuration t_migrate = 0, t_remote = 0;
    for (double fraction : {0.05, 0.5}) {
      for (bool remote : {false, true}) {
        RunResult r = run_sparse_reader(cfg, 1.5, fraction, remote, false);
        if (fraction == 0.05) {
          (remote ? t_remote : t_migrate) = r.total_kernel_time();
        }
        t.add_row({remote ? "remote_map" : "paged_migration",
                   fmt(100.0 * fraction, 3),
                   format_duration(r.total_kernel_time()),
                   fmt(r.counters.faults_fetched),
                   fmt(r.counters.evictions), format_bytes(r.bytes_h2d),
                   fmt(r.counters.pages_remote_mapped)});
      }
    }
    t.print("Ablation 7A — sparse random reads @150 % oversub: migration vs "
            "remote mapping");
    shape_check("remote mapping wins for sparse (5 %) access over an "
                "oversubscribed table",
                t_remote < t_migrate);
  }

  // --- Part B: read-mostly duplication under eviction pressure ---
  {
    Table t({"advise", "kernel_time", "pages_evicted(writeback)",
             "writebacks_avoided", "bytes_d2h"});
    std::uint64_t d2h_plain = 0, d2h_dup = 0;
    for (bool read_mostly : {false, true}) {
      Simulator sim(cfg);
      auto bytes = static_cast<std::uint64_t>(
          1.5 * static_cast<double>(cfg.gpu_memory()));
      RangeId rid = sim.malloc_managed(bytes, "input");
      if (read_mostly) {
        MemAdvise a;
        a.read_mostly = true;
        sim.mem_advise(rid, a);
      }
      const VaRange& r = sim.address_space().range(rid);
      GridBuilder g("read_sweep");
      for (std::uint64_t p = 0; p < r.num_pages; p += 32) {
        auto n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(32, r.num_pages - p));
        g.new_warp().add_run(r.first_page + p, n, /*write=*/false, 500);
      }
      sim.launch(g.build(static_cast<double>(r.num_pages)));
      RunResult res = sim.run();
      (read_mostly ? d2h_dup : d2h_plain) = res.bytes_d2h;
      t.add_row({read_mostly ? "read_mostly" : "none",
                 format_duration(res.total_kernel_time()),
                 fmt(res.counters.pages_evicted),
                 fmt(res.counters.writebacks_avoided),
                 format_bytes(res.bytes_d2h)});
    }
    t.print("Ablation 7B — read-only sweep @150 % oversub: duplication "
            "removes eviction writeback");
    shape_check("read-mostly eliminates D2H writeback traffic",
                d2h_dup == 0 && d2h_plain > 0);
  }

  // --- Part C: explicit prefetch vs fault-driven paging (undersub) ---
  {
    Table t({"mode", "kernel_time", "total_time", "faults", "h2d_transfers"});
    SimDuration total_fault = 0, total_pf = 0;
    for (bool prefetch_first : {false, true}) {
      RunResult r = run_sparse_reader(cfg, 0.5, 1.0, false, prefetch_first);
      SimDuration total = r.end_time;
      (prefetch_first ? total_pf : total_fault) = total;
      t.add_row({prefetch_first ? "prefetch_async" : "fault_driven",
                 format_duration(r.total_kernel_time()),
                 format_duration(total), fmt(r.counters.faults_fetched),
                 fmt(r.transfers_h2d)});
    }
    t.print("Ablation 7C — dense reads undersub: explicit prefetch vs "
            "demand faults");
    shape_check("explicit prefetch beats fault-driven paging end to end",
                total_pf < total_fault);
  }
  return 0;
}
