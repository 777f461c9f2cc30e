// Calibration regression tests: the paper-anchored emergent quantities.
// These are the "golden numbers" of the reproduction — if a cost-model or
// mechanism change moves one of these out of band, a paper-facing shape has
// probably broken too (see docs/cost_model.md for the anchor table).
#include <gtest/gtest.h>

#include "baseline/explicit_transfer.h"
#include "core/metrics.h"
#include "core/simulator.h"
#include "workloads/registry.h"
#include "workloads/regular.h"

namespace uvmsim {
namespace {

SimConfig cfg_128() {
  SimConfig cfg;
  cfg.set_gpu_memory(128ull << 20);
  cfg.enable_fault_log = false;
  return cfg;
}

RunResult run(const SimConfig& cfg, const std::string& name,
              std::uint64_t bytes) {
  Simulator sim(cfg);
  auto wl = make_workload(name, bytes);
  wl->setup(sim);
  return sim.run();
}

TEST(Calibration, SmallKernelFloor400To600us) {
  // Paper §III-C: total cost "relatively constant in the order of
  // 400-600 us for data volume less than 100KB".
  SimConfig cfg = cfg_128();
  cfg.driver.prefetch = PrefetchMode::Off;
  double t8k = to_us(run(cfg, "regular", 8 << 10).total_kernel_time());
  double t64k = to_us(run(cfg, "regular", 64 << 10).total_kernel_time());
  EXPECT_GE(t8k, 300.0);
  EXPECT_LE(t8k, 700.0);
  EXPECT_GE(t64k, 300.0);
  EXPECT_LE(t64k, 900.0);
  // Roughly constant across the sub-100KB band.
  EXPECT_LT(t64k / t8k, 2.0);
}

TEST(Calibration, SteadyStateFarFault30To45us) {
  // Paper §I (citing [1]): "the cost of a far-fault is 30-45 us". Measured
  // as the marginal cost of one additional isolated fault cycle at steady
  // state (prefetch off, cold start excluded).
  SimConfig cfg = cfg_128();
  cfg.driver.prefetch = PrefetchMode::Off;
  cfg.costs.driver_cold_start = 0;

  Simulator sim(cfg);
  RangeId rid = sim.malloc_managed(1ull << 20, "probe");
  VirtPage base = sim.address_space().range(rid).first_page;

  auto one_fault_cycle = [&](VirtPage p) {
    SimTime start = sim.event_queue().now();
    FaultEntry e;
    e.page = p;
    e.block = block_of_page(p);
    e.range = rid;
    EXPECT_TRUE(sim.fault_buffer().push(e, start));
    sim.driver().on_gpu_interrupt();
    sim.event_queue().run();
    return sim.event_queue().now() - start;
  };
  one_fault_cycle(base);  // warm the PMA slab cache
  SimDuration marginal = one_fault_cycle(base + 1);
  EXPECT_GE(marginal, 30 * kMicrosecond);
  EXPECT_LE(marginal, 60 * kMicrosecond);
}

TEST(Calibration, TableIRegularCoverageNear82Percent) {
  SimConfig with = cfg_128(), without = cfg_128();
  without.driver.prefetch = PrefetchMode::Off;
  const std::uint64_t target = 77ull << 20;  // ~60 % of GPU memory
  double red = fault_reduction_percent(
      run(without, "regular", target).counters.faults_fetched,
      run(with, "regular", target).counters.faults_fetched);
  EXPECT_GE(red, 75.0);  // paper: 82.27
  EXPECT_LE(red, 90.0);
}

TEST(Calibration, TableIRandomCoverageNear98Percent) {
  SimConfig with = cfg_128(), without = cfg_128();
  without.driver.prefetch = PrefetchMode::Off;
  const std::uint64_t target = 77ull << 20;
  double red = fault_reduction_percent(
      run(without, "random", target).counters.faults_fetched,
      run(with, "random", target).counters.faults_fetched);
  EXPECT_GE(red, 93.0);  // paper: 97.95
}

TEST(Calibration, UvmNoPrefetchOrderOfMagnitudeOverExplicit) {
  // Paper Fig. 1 claim (1), at a representative undersubscribed size.
  SimConfig cfg = cfg_128();
  cfg.driver.prefetch = PrefetchMode::Off;
  RegularTouch wl(32ull << 20);
  ExplicitResult ex = ExplicitTransfer::run(cfg_128(), wl);
  RunResult r = run(cfg, "regular", 32ull << 20);
  double s = slowdown(ex.total, r.total_kernel_time());
  EXPECT_GE(s, 5.0);
  EXPECT_LE(s, 40.0);
}

TEST(Calibration, PrefetchBringsUvmWithinFewXOfExplicit) {
  // Paper Fig. 1 claim (2).
  RegularTouch wl(32ull << 20);
  ExplicitResult ex = ExplicitTransfer::run(cfg_128(), wl);
  RunResult r = run(cfg_128(), "regular", 32ull << 20);
  double s = slowdown(ex.total, r.total_kernel_time());
  EXPECT_GE(s, 1.2);
  EXPECT_LE(s, 8.0);
}

TEST(Calibration, RandomOversubscriptionAmplifiesTraffic) {
  // Paper §V-A3: regular moves ~its footprint; random moves many times it
  // (504 GB for 32 GB at deep oversubscription on the testbed).
  SimConfig cfg = cfg_128();
  cfg.set_gpu_memory(48ull << 20);
  auto target = static_cast<std::uint64_t>(2.0 * 48 * (1 << 20));
  RunResult reg = run(cfg, "regular", target);
  RunResult rnd = run(cfg, "random", target);
  double amp_reg = static_cast<double>(reg.bytes_h2d) /
                   static_cast<double>(reg.total_bytes);
  double amp_rnd = static_cast<double>(rnd.bytes_h2d) /
                   static_cast<double>(rnd.total_bytes);
  EXPECT_LT(amp_reg, 1.3);
  EXPECT_GT(amp_rnd, 3.0);
}

}  // namespace
}  // namespace uvmsim
