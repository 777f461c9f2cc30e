// Figure 7 reproduction: page-granularity access patterns as the driver
// sees them — fault occurrence (driver processing order) vs gap-adjusted
// page index, prefetching disabled, for the whole benchmark suite.
//
// Output per workload: an ASCII scatter (the paper's plots), range
// boundaries, pattern statistics (ordering/locality/interleave and an
// automatic classification), and a downsampled CSV series.
//
// Paper claims (§IV-B) checked:
//  * regular: block-scheduler bias towards lower-numbered blocks but no
//    fixed order;
//  * stream: the three-vector dependency forces a much stricter fault
//    ordering than regular;
//  * random: no ordering at all;
//  * hpgmg/cusparse: mixed regular + random-like segments.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/pattern_analyzer.h"
#include "core/report.h"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  const std::uint64_t target = gpu_bytes() / 4;  // well undersubscribed
  double corr_regular = 0, corr_random = 0, corr_stream = 0;
  double interleave_stream = 0, interleave_regular = 0;
  PatternStats::Class class_random{};

  Table summary({"workload", "ordering", "locality", "interleave", "class"});

  for (const auto& name : workload_names()) {
    SimConfig cfg = base_config(/*fault_log=*/true);
    cfg.driver.prefetch = PrefetchMode::Off;

    Simulator sim(cfg);
    auto wl = make_workload(name, target);
    wl->setup(sim);
    RunResult r = sim.run();

    PatternAnalyzer pa(sim.address_space());
    auto pts = pa.points(r.fault_log,
                         1u << static_cast<int>(FaultLogKind::Fault));

    std::cout << "\n== Fig. 7 — " << name << " (" << pts.size()
              << " faults, " << sim.address_space().num_ranges()
              << " allocations) ==\n";
    std::cout << pa.ascii_scatter(pts, 100, 24);

    PatternStats st = PatternAnalyzer::analyze(pts);
    summary.add_row({name, fmt(st.ordering, 3), fmt(st.locality, 3),
                     fmt(st.interleave, 3),
                     PatternStats::to_string(st.classification())});
    if (name == "regular") {
      corr_regular = st.ordering;
      interleave_regular = st.interleave;
    }
    if (name == "random") {
      corr_random = st.ordering;
      class_random = st.classification();
    }
    if (name == "stream") {
      corr_stream = st.ordering;
      interleave_stream = st.interleave;
    }

    // Downsampled CSV series (<= 400 points).
    std::size_t stride = std::max<std::size_t>(1, pts.size() / 400);
    std::cout << "csv,workload,order,adj_page,range\n";
    for (std::size_t i = 0; i < pts.size(); i += stride) {
      std::cout << "csv," << name << ',' << pts[i].order << ','
                << pts[i].adj_page << ',' << pts[i].range << "\n";
    }
  }

  summary.print("Fig. 7 — pattern statistics");

  shape_check("regular sweeps mostly in order (corr > 0.6)",
              corr_regular > 0.6);
  shape_check("random shows no ordering (|corr| < 0.2) and classifies as "
              "random",
              std::abs(corr_random) < 0.2 &&
                  class_random == PatternStats::Class::Random);
  shape_check("stream's page dependency orders faults at least as strictly "
              "as regular",
              corr_stream >= corr_regular - 0.05);
  shape_check("stream interleaves its three vectors far more than regular",
              interleave_stream > 4 * std::max(interleave_regular, 0.01));
  return 0;
}
