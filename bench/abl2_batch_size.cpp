// Ablation 2: fault-batch size sweep (paper §III-D insight 2).
//
// Paper claim: "the batch size affects the cost and the optimal size depends
// on application access patterns... Larger batches have a better chance to
// have more page faults in the same VABlock, which better utilizes the
// bandwidth and amortizes migration cost, at the cost of potentially
// delaying SMs and accumulating more faults in the fault buffer."
#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"
#include "sweep_runner.h"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  const std::uint64_t target = static_cast<std::uint64_t>(
      0.4 * static_cast<double>(gpu_bytes()));
  const std::vector<std::string> workloads = {"regular", "random", "sgemm"};
  const std::vector<std::uint32_t> sizes = {16, 64, 256, 1024, 4096};

  struct Point {
    std::string wl;
    std::uint32_t bs;
  };
  std::vector<Point> points;
  for (const std::string& wl : workloads) {
    for (std::uint32_t bs : sizes) points.push_back({wl, bs});
  }

  SweepRunner runner;
  auto results = runner.sweep(points, [target](const Point& p) {
    SimConfig cfg = base_config();
    cfg.driver.batch_size = p.bs;
    cfg.driver.prefetch = PrefetchMode::Off;  // isolate batching effects
    return run_workload(cfg, p.wl, target);
  });

  for (std::size_t w = 0; w < workloads.size(); ++w) {
    Table t({"batch_size", "kernel_time", "passes", "avg_faults_per_pass",
             "stall_ms", "dup+stale"});
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      const RunResult& r = results[w * sizes.size() + k];
      double per_pass =
          r.counters.passes
              ? static_cast<double>(r.counters.faults_fetched) /
                    static_cast<double>(r.counters.passes)
              : 0.0;
      std::uint64_t stall = 0;
      for (const auto& kr : r.kernels) stall += kr.stall_ns;
      t.add_row({fmt(std::uint64_t{sizes[k]}),
                 format_duration(r.total_kernel_time()),
                 fmt(r.counters.passes), fmt(per_pass, 4),
                 fmt(to_ms(stall), 4),
                 fmt(r.counters.duplicate_faults + r.counters.stale_faults)});
    }
    t.print("Ablation 2 — " + workloads[w] + " batch-size sweep (prefetch off)");
  }

  // Tiny batches must cost more driver passes than the default. Simulations
  // are deterministic, so the (regular, 16) and (regular, 256 = default)
  // sweep points above already are these exact runs.
  const RunResult& rs = results[0 * sizes.size() + 0];  // regular, bs=16
  const RunResult& rd = results[0 * sizes.size() + 2];  // regular, bs=256
  shape_check("tiny batches need many more driver passes",
              rs.counters.passes > 2 * rd.counters.passes);
  return 0;
}
