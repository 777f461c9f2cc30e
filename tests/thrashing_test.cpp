// Thrashing detector unit tests plus driver integration (pin/throttle
// mitigation of the evict-refault cycle).
#include "uvm/thrashing_detector.h"

#include <gtest/gtest.h>

#include "core/simulator.h"
#include "workloads/registry.h"

namespace uvmsim {
namespace {

ThrashingDetector::Config det_cfg(ThrashMitigation m = ThrashMitigation::Pin) {
  ThrashingDetector::Config c;
  c.enabled = true;
  c.window = 1000;
  c.threshold = 2;
  c.mitigation = m;
  c.decay = 100000;
  return c;
}

TEST(ThrashingDetector, DisabledAlwaysMigrates) {
  ThrashingDetector d(ThrashingDetector::Config{});
  d.on_eviction(1, 100);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(d.on_fault(1, 100 + i), ThrashingDetector::Advice::Migrate);
  }
  EXPECT_EQ(d.thrash_events(), 0u);
}

TEST(ThrashingDetector, FaultWithoutEvictionIsNotThrash) {
  ThrashingDetector d(det_cfg());
  EXPECT_EQ(d.on_fault(1, 100), ThrashingDetector::Advice::Migrate);
  EXPECT_EQ(d.thrash_events(), 0u);
}

TEST(ThrashingDetector, RefaultInsideWindowCounts) {
  ThrashingDetector d(det_cfg());
  d.on_eviction(1, 1000);
  EXPECT_EQ(d.on_fault(1, 1500), ThrashingDetector::Advice::Migrate);  // 1st
  EXPECT_EQ(d.thrash_events(), 1u);
  d.on_eviction(1, 2000);
  EXPECT_EQ(d.on_fault(1, 2500), ThrashingDetector::Advice::Pin);  // 2nd arms
  EXPECT_EQ(d.blocks_mitigated(), 1u);
}

TEST(ThrashingDetector, RefaultOutsideWindowIgnored) {
  ThrashingDetector d(det_cfg());
  d.on_eviction(1, 1000);
  EXPECT_EQ(d.on_fault(1, 5000), ThrashingDetector::Advice::Migrate);
  EXPECT_EQ(d.thrash_events(), 0u);
}

TEST(ThrashingDetector, BlocksAreIndependent) {
  ThrashingDetector d(det_cfg());
  d.on_eviction(1, 1000);
  d.on_fault(1, 1100);
  d.on_eviction(1, 1200);
  d.on_fault(1, 1300);  // block 1 armed
  EXPECT_EQ(d.on_fault(2, 1400), ThrashingDetector::Advice::Migrate);
  EXPECT_EQ(d.on_fault(1, 1500), ThrashingDetector::Advice::Pin);
}

TEST(ThrashingDetector, ThrottleAdvice) {
  ThrashingDetector d(det_cfg(ThrashMitigation::Throttle));
  d.on_eviction(1, 1000);
  d.on_fault(1, 1100);
  d.on_eviction(1, 1200);
  EXPECT_EQ(d.on_fault(1, 1300), ThrashingDetector::Advice::Throttle);
}

TEST(ThrashingDetector, DetectOnlyNeverMitigates) {
  ThrashingDetector d(det_cfg(ThrashMitigation::None));
  for (int i = 0; i < 5; ++i) {
    d.on_eviction(1, static_cast<SimTime>(1000 + 200 * i));
    EXPECT_EQ(d.on_fault(1, static_cast<SimTime>(1100 + 200 * i)),
              ThrashingDetector::Advice::Migrate);
  }
  EXPECT_GE(d.thrash_events(), 2u);
  EXPECT_EQ(d.blocks_mitigated(), 0u);
}

TEST(ThrashingDetector, MitigationDecays) {
  auto cfg = det_cfg();
  cfg.decay = 1000;
  ThrashingDetector d(cfg);
  d.on_eviction(1, 1000);
  d.on_fault(1, 1100);
  d.on_eviction(1, 1200);
  EXPECT_EQ(d.on_fault(1, 1300), ThrashingDetector::Advice::Pin);
  // A long quiet period clears the score; by then the last eviction is also
  // outside the window, so the fault migrates normally.
  EXPECT_EQ(d.on_fault(1, 500000), ThrashingDetector::Advice::Migrate);
}

// --- driver integration: the random oversubscription thrash storm ---

class ThrashingDriverTest : public ::testing::Test {
 protected:
  static RunResult run_random_oversub(ThrashMitigation m, bool enabled) {
    SimConfig cfg;
    cfg.set_gpu_memory(16ull << 20);
    cfg.enable_fault_log = false;
    cfg.driver.prefetch = PrefetchMode::Off;  // maximize block churn
    cfg.driver.thrashing.enabled = enabled;
    cfg.driver.thrashing.mitigation = m;
    cfg.driver.thrashing.window = 2 * kMillisecond;
    cfg.driver.thrashing.threshold = 2;

    Simulator sim(cfg);
    auto wl = make_workload("random", 28ull << 20);  // 175 % oversub
    wl->setup(sim);
    return sim.run();
  }
};

TEST_F(ThrashingDriverTest, PinMitigationReducesEvictions) {
  RunResult off = run_random_oversub(ThrashMitigation::Pin, false);
  RunResult pin = run_random_oversub(ThrashMitigation::Pin, true);
  EXPECT_GT(pin.counters.thrash_pinned_pages, 0u);
  EXPECT_LT(pin.counters.evictions, off.counters.evictions);
  EXPECT_LT(pin.total_kernel_time(), off.total_kernel_time());
}

TEST_F(ThrashingDriverTest, ThrottleCountsAndCompletes) {
  RunResult r = run_random_oversub(ThrashMitigation::Throttle, true);
  EXPECT_GT(r.counters.thrash_throttles, 0u);
  EXPECT_EQ(r.counters.thrash_pinned_pages, 0u);
}

}  // namespace
}  // namespace uvmsim
