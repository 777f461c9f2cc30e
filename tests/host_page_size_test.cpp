// Host base-page granularity (x86 4 KB vs Power9 64 KB) tests.
#include <gtest/gtest.h>

#include "core/simulator.h"
#include "workloads/regular.h"

namespace uvmsim {
namespace {

SimConfig p9_cfg() {
  SimConfig cfg;
  cfg.set_gpu_memory(32ull << 20);
  cfg.set_host_page_size(64 << 10);
  cfg.enable_fault_log = false;
  return cfg;
}

TEST(HostPageSize, SetterConfiguresBothSides) {
  SimConfig cfg;
  cfg.set_host_page_size(64 << 10);
  EXPECT_EQ(cfg.gpu.fault_granularity_pages, 16u);
  EXPECT_EQ(cfg.driver.base_page_pages, 16u);
  EXPECT_FALSE(cfg.driver.big_page_upgrade);  // redundant at 64K
  cfg.set_host_page_size(4 << 10);
  EXPECT_EQ(cfg.gpu.fault_granularity_pages, 1u);
  EXPECT_EQ(cfg.driver.base_page_pages, 1u);
}

TEST(HostPageSize, InvalidBasePageThrows) {
  SimConfig cfg;
  cfg.driver.base_page_pages = 0;
  EXPECT_THROW(Simulator{cfg}, std::invalid_argument);
  cfg.driver.base_page_pages = 3;  // does not divide 512
  EXPECT_THROW(Simulator{cfg}, std::invalid_argument);
}

TEST(HostPageSize, ServiceWidensToBasePage) {
  SimConfig cfg = p9_cfg();
  cfg.costs.driver_cold_start = 0;
  Simulator sim(cfg);
  RangeId rid = sim.malloc_managed(2ull << 20, "data");
  VirtPage base = sim.address_space().range(rid).first_page;

  FaultEntry e;
  e.page = base + 5;  // inside the first 64 KB group
  e.block = block_of_page(e.page);
  e.range = rid;
  ASSERT_TRUE(sim.fault_buffer().push(e, 0));
  sim.driver().on_gpu_interrupt();
  sim.event_queue().run();

  const VaBlock& blk = sim.address_space().block_of(e.page);
  // The whole 16-page group is serviced: 1 faulted page + 15 base-page
  // fill pages (not prefetch).
  EXPECT_EQ(blk.gpu_resident.count_range(0, 16), 16u);
  EXPECT_EQ(sim.driver().counters().faults_serviced, 1u);
  EXPECT_EQ(sim.driver().counters().base_page_fill_pages, 15u);
}

TEST(HostPageSize, Power9RaisesFarFewerFaults) {
  auto faults = [](bool p9) {
    SimConfig cfg;
    cfg.set_gpu_memory(32ull << 20);
    if (p9) cfg.set_host_page_size(64 << 10);
    cfg.driver.prefetch = PrefetchMode::Off;  // isolate base-page effects
    cfg.enable_fault_log = false;
    Simulator sim(cfg);
    RegularTouch wl(8ull << 20);
    wl.setup(sim);
    return sim.run().counters.faults_fetched;
  };
  std::uint64_t x86 = faults(false);
  std::uint64_t p9 = faults(true);
  EXPECT_GT(x86, 4 * p9);
}

TEST(HostPageSize, Power9RunCompletesOversubscribed) {
  SimConfig cfg = p9_cfg();
  Simulator sim(cfg);
  RegularTouch wl(48ull << 20);  // 150 %
  wl.setup(sim);
  RunResult r = sim.run();
  EXPECT_GT(r.counters.evictions, 0u);
  EXPECT_LE(r.resident_pages_at_end * kPageSize, cfg.gpu_memory());
}

TEST(HostPageSize, GroupCoalescingInEngine) {
  // Two warps faulting different pages of the SAME 64 KB group: one entry.
  SimConfig cfg = p9_cfg();
  Simulator sim(cfg);
  RangeId rid = sim.malloc_managed(2ull << 20, "data");
  VirtPage base = sim.address_space().range(rid).first_page;

  KernelSpec k;
  k.name = "same_group";
  k.blocks.emplace_back();
  for (int w = 0; w < 2; ++w) {
    AccessStream s;
    s.add_run(base + static_cast<VirtPage>(w) * 3, 1, false, 100);
    k.blocks.back().warps.push_back(std::move(s));
  }
  sim.launch(std::move(k));
  RunResult r = sim.run();
  EXPECT_EQ(r.kernels[0].faults_raised, 1u);
  EXPECT_GE(sim.gpu().faults_coalesced(), 1u);
}

}  // namespace
}  // namespace uvmsim
