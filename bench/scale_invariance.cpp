// Scale-invariance validation: the methodological check behind the whole
// scaled-run policy (DESIGN.md §7).
//
// Every claim this repository reproduces is a ratio — oversubscription %,
// fault-coverage %, breakdown shares, relative slowdowns. Those ratios must
// not depend on the absolute simulated GPU size, or the 128 MiB default
// would be meaningless as a stand-in for the paper's 12 GB testbed. This
// bench runs the same experiments at three GPU scales (with the SM array
// and data sizes scaled proportionally) and checks that the shape metrics
// agree within tolerance.
#include <cmath>

#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"

namespace {

using namespace uvmsim;

struct ShapeMetrics {
  double coverage_regular = 0;   ///< Table I fault reduction %
  double coverage_random = 0;
  double migrate_share = 0;      ///< Fig. 3 migrate fraction of driver time
  double oversub_slowdown = 0;   ///< kernel time ratio 120 % vs 60 %
};

ShapeMetrics measure(std::uint64_t gpu_bytes, std::uint32_t num_sms) {
  auto cfg_for = [&](bool prefetch) {
    SimConfig cfg;
    cfg.set_gpu_memory(gpu_bytes);
    cfg.gpu.num_sms = num_sms;
    cfg.enable_fault_log = false;
    cfg.driver.prefetch = prefetch ? PrefetchMode::Tree : PrefetchMode::Off;
    // The one-time cold start amortizes differently across scales by
    // construction; exclude it so composition shares compare like for
    // like (every remaining component scales with page count).
    cfg.costs.driver_cold_start = 0;
    return cfg;
  };
  auto run = [&](const SimConfig& cfg, const std::string& wl, double ratio) {
    return uvmsim::bench::run_workload(
        cfg, wl,
        static_cast<std::uint64_t>(ratio * static_cast<double>(gpu_bytes)));
  };

  ShapeMetrics m;
  RunResult reg_nopf = run(cfg_for(false), "regular", 0.6);
  RunResult reg_pf = run(cfg_for(true), "regular", 0.6);
  RunResult rnd_nopf = run(cfg_for(false), "random", 0.6);
  RunResult rnd_pf = run(cfg_for(true), "random", 0.6);
  m.coverage_regular = fault_reduction_percent(
      reg_nopf.counters.faults_fetched, reg_pf.counters.faults_fetched);
  m.coverage_random = fault_reduction_percent(
      rnd_nopf.counters.faults_fetched, rnd_pf.counters.faults_fetched);
  m.migrate_share =
      static_cast<double>(reg_nopf.profiler.total(CostCategory::ServiceMigrate)) /
      static_cast<double>(reg_nopf.profiler.grand_total());

  RunResult under = run(cfg_for(true), "regular", 0.6);
  RunResult over = run(cfg_for(true), "regular", 1.2);
  // Normalize by data size: time per byte at 120 % vs 60 %.
  m.oversub_slowdown =
      (static_cast<double>(over.total_kernel_time()) / 1.2) /
      (static_cast<double>(under.total_kernel_time()) / 0.6);
  return m;
}

bool close(double a, double b, double rel_tol) {
  double denom = std::max(std::abs(a), std::abs(b));
  if (denom == 0) return true;
  return std::abs(a - b) / denom <= rel_tol;
}

}  // namespace

int main() {
  using namespace uvmsim::bench;

  // GPU memory and SM count scale together (a Titan V pairs 12 GB with
  // 80 SMs -> ~8 SMs per 128 MiB).
  struct Scale {
    const char* name;
    std::uint64_t gpu;
    std::uint32_t sms;
  };
  const Scale scales[] = {
      {"64MiB/4SM", 64ull << 20, 4},
      {"128MiB/8SM", 128ull << 20, 8},
      {"256MiB/16SM", 256ull << 20, 16},
  };

  Table t({"scale", "coverage_regular_pct", "coverage_random_pct",
           "migrate_share", "oversub_time_per_byte_ratio"});
  std::vector<ShapeMetrics> ms;
  for (const Scale& s : scales) {
    ShapeMetrics m = measure(s.gpu, s.sms);
    ms.push_back(m);
    t.add_row({s.name, fmt(m.coverage_regular, 4), fmt(m.coverage_random, 4),
               fmt(m.migrate_share, 3), fmt(m.oversub_slowdown, 3)});
  }
  t.print("Scale invariance — identical shape metrics at 3 machine scales");

  const ShapeMetrics& lo = ms.front();
  const ShapeMetrics& hi = ms.back();
  shape_check("prefetch coverage is scale-invariant (<= 10 % drift across 4x)",
              close(lo.coverage_regular, hi.coverage_regular, 0.10) &&
                  close(lo.coverage_random, hi.coverage_random, 0.10));
  // Composition shares drift mildly with machine size because the batch
  // size (256) is a driver constant while fault concurrency scales with the
  // SM array: a bigger machine amortizes per-pass overheads over more
  // faults, growing the migrate share toward its asymptote. The same effect
  // exists on real hardware; the check bounds the drift rather than
  // expecting zero.
  shape_check("driver-time composition drifts only mildly across 4x scale "
              "(<= 25 %)",
              close(lo.migrate_share, hi.migrate_share, 0.25));
  shape_check("oversubscription penalty is scale-invariant (<= 20 % drift)",
              close(lo.oversub_slowdown, hi.oversub_slowdown, 0.20));
  return 0;
}
