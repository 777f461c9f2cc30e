#include "mem/dma_engine.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "sim/hazards.h"
#include "uvm/service.h"

namespace uvmsim {
namespace {

class DmaTest : public ::testing::Test {
 protected:
  DmaTest() : link_(link_cfg()), dma_(dma_cfg(), link_) {}

  static Interconnect::Config link_cfg() {
    Interconnect::Config c;
    c.bandwidth_Bps = 1e9;
    c.latency = 1000;
    return c;
  }
  static DmaEngine::Config dma_cfg() {
    DmaEngine::Config c;
    c.op_setup = 500;
    c.staging_per_run = 250;
    c.zero_bandwidth_Bps = 2e9;  // 2 bytes/ns
    return c;
  }

  Interconnect link_;
  DmaEngine dma_;
};

TEST_F(DmaTest, SingleRunCost) {
  std::array<std::uint64_t, 1> runs = {1000};
  SimTime done = dma_.copy_runs(Direction::HostToDevice, 0, runs).done;
  // staging 250 + setup 500 + latency 1000 + wire 1000
  EXPECT_EQ(done, 2750u);
  EXPECT_EQ(dma_.copy_ops(), 1u);
}

TEST_F(DmaTest, MultipleRunsPaySetupEach) {
  std::array<std::uint64_t, 2> runs = {1000, 1000};
  SimTime done = dma_.copy_runs(Direction::HostToDevice, 0, runs).done;
  EXPECT_EQ(done, 5500u);  // 2 * 2750
  EXPECT_EQ(dma_.copy_ops(), 2u);
}

TEST_F(DmaTest, CoalescingBeatsScatter) {
  // Same bytes, one run vs four runs: one run must be cheaper.
  std::array<std::uint64_t, 1> one = {4000};
  std::array<std::uint64_t, 4> four = {1000, 1000, 1000, 1000};
  Interconnect l2(link_cfg());
  DmaEngine d2(dma_cfg(), l2);
  SimTime t_one = dma_.copy_runs(Direction::HostToDevice, 0, one).done;
  SimTime t_four = d2.copy_runs(Direction::HostToDevice, 0, four).done;
  EXPECT_LT(t_one, t_four);
}

TEST_F(DmaTest, ZeroLengthRunsSkipped) {
  std::array<std::uint64_t, 3> runs = {0, 1000, 0};
  SimTime done = dma_.copy_runs(Direction::HostToDevice, 0, runs).done;
  EXPECT_EQ(done, 2750u);
  EXPECT_EQ(dma_.copy_ops(), 1u);
}

TEST_F(DmaTest, EmptyRunListIsFree) {
  SimTime done = dma_.copy_runs(Direction::HostToDevice, 42, {}).done;
  EXPECT_EQ(done, 42u);
}

TEST_F(DmaTest, ZeroFillUsesGpuBandwidth) {
  SimTime done = dma_.zero_fill(0, 2000);
  EXPECT_EQ(done, 500u + 1000u);  // setup + 2000B at 2B/ns
  EXPECT_EQ(dma_.zero_bytes(), 2000u);
  // No interconnect traffic.
  EXPECT_EQ(link_.bytes_moved(Direction::HostToDevice), 0u);
}

TEST_F(DmaTest, ZeroFillOfNothingIsFree) {
  EXPECT_EQ(dma_.zero_fill(7, 0), 7u);
}

TEST_F(DmaTest, FailedRunIsReportedAndRetriedThroughTheRunList) {
  // Every run fails while the hazard window is open; the failed run's bytes
  // come back for the caller to re-issue, and the retry after the window
  // closes transfers exactly those bytes.
  HazardConfig hc;
  hc.seed = 9;
  hc.dma_fail_rate = 0.999999;
  hc.window_end = 10'000;
  HazardInjector hazards(hc);
  dma_.set_hazard_injector(&hazards);

  PageMask m;
  m.set_range(0, 2);
  m.set(10);
  const RunBytes runs = runs_to_bytes(m);
  DmaEngine::CopyResult res =
      dma_.copy_runs(Direction::HostToDevice, 0, runs);
  ASSERT_FALSE(res.ok());
  ASSERT_EQ(res.failed_run_bytes.size(), 2u);
  EXPECT_EQ(res.failed_run_bytes[0], 2 * kPageSize);
  EXPECT_EQ(res.failed_run_bytes[1], kPageSize);
  // Two runs of staging + setup + fail detection, no transfer.
  EXPECT_EQ(res.done, 2u * (250u + 500u + dma_cfg().fail_detect));
  EXPECT_EQ(dma_.failed_runs(), 2u);
  EXPECT_EQ(link_.bytes_moved(Direction::HostToDevice), 0u);

  const std::vector<std::uint64_t> pending = res.failed_run_bytes;
  res = dma_.copy_runs(Direction::HostToDevice, 20'000, pending);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(dma_.copy_ops(), 2u);
  EXPECT_EQ(link_.bytes_moved(Direction::HostToDevice), 3 * kPageSize);
}

TEST_F(DmaTest, DirectionRouting) {
  std::array<std::uint64_t, 1> runs = {100};
  dma_.copy_runs(Direction::DeviceToHost, 0, runs);
  EXPECT_EQ(link_.bytes_moved(Direction::DeviceToHost), 100u);
  EXPECT_EQ(link_.bytes_moved(Direction::HostToDevice), 0u);
}

}  // namespace
}  // namespace uvmsim
