// Ablation 6: chunked allocation granularity (paper §VI-B).
//
// Paper claim: "2 MB blocks may be too coarse for allocations and evictions
// for irregular applications... This allocation size can lead to many
// evictions and inefficient use of GPU memory", and a tunable granularity
// "could allow for greater on-GPU memory utilization and reduce the overall
// number of evictions."
//
// Compare three backing policies for the random (irregular) and regular
// patterns at 150 % oversubscription:
//   strict  — chunking disabled: every block gets a 2 MB root chunk (the
//             historical whole-block behaviour);
//   chunked — default watermarks: split to 64 KB / 4 KB only once free
//             memory runs low;
//   eager   — watermarks forced above 1.0: always allocate at the finest
//             granularity the demand shape allows.
#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  const double ratio = 1.5;

  struct Policy {
    const char* name;
    bool enabled;
    double split;  // < 0 = keep default
    double fine;
  };
  const Policy policies[] = {
      {"strict-2MB", false, -1.0, -1.0},
      {"chunked", true, -1.0, -1.0},
      {"eager-fine", true, 2.0, 2.0},
  };

  for (const std::string wl : {"random", "regular"}) {
    Table t({"policy", "kernel_time", "faults", "evictions", "subchunks",
             "pages_evicted", "bytes_h2d", "resident_util_pct"});
    SimDuration t_strict = 0, t_chunked = 0;
    std::uint64_t h2d_strict = 0, h2d_chunked = 0;

    for (const Policy& p : policies) {
      SimConfig cfg = base_config();
      // Smaller machine keeps the random thrash bounded.
      cfg.set_gpu_memory(std::min<std::uint64_t>(gpu_bytes(), 64ull << 20));
      // Pure demand paging: prefetch-driven population is speculative and
      // backs at root granularity by design, which would mask the
      // allocation-granularity asymmetry this ablation isolates.
      cfg.driver.prefetch = PrefetchMode::Off;
      cfg.driver.chunking.enabled = p.enabled;
      if (p.split >= 0) cfg.driver.chunking.split_watermark = p.split;
      if (p.fine >= 0) cfg.driver.chunking.fine_watermark = p.fine;
      auto target = static_cast<std::uint64_t>(
          ratio * static_cast<double>(cfg.gpu_memory()));

      Simulator sim(cfg);
      auto w = make_workload(wl, target);
      w->setup(sim);
      RunResult r = sim.run();

      // Utilization: resident pages vs the bytes the backing occupies.
      double util =
          100.0 * static_cast<double>(r.resident_pages_at_end * kPageSize) /
          static_cast<double>(sim.pma().bytes_in_use());
      if (std::string(p.name) == "strict-2MB") {
        t_strict = r.total_kernel_time();
        h2d_strict = r.bytes_h2d;
      }
      if (std::string(p.name) == "chunked") {
        t_chunked = r.total_kernel_time();
        h2d_chunked = r.bytes_h2d;
      }
      t.add_row({p.name, format_duration(r.total_kernel_time()),
                 fmt(r.counters.faults_fetched), fmt(r.counters.evictions),
                 fmt(r.counters.subchunk_allocs),
                 fmt(r.counters.pages_evicted), format_bytes(r.bytes_h2d),
                 fmt(util, 4)});
    }
    t.print("Ablation 6 — " + wl + " @150 % oversub, chunked backing");

    if (wl == "random") {
      shape_check("(random) chunked backing cuts H2D thrash",
                  h2d_chunked < h2d_strict);
      shape_check("(random) chunked backing improves runtime",
                  t_chunked < t_strict);
    } else {
      shape_check("(regular) backing policy matters far less for regular",
                  t_strict < 2 * t_chunked || t_chunked < 2 * t_strict);
    }
  }
  return 0;
}
