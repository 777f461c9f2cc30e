// Driver integration tests: faults are injected straight into the fault
// buffer (no GPU kernel), the driver is interrupted, and the resulting
// service actions, costs, and policy behaviours are checked.
#include "uvm/driver.h"

#include <gtest/gtest.h>

#include "core/simulator.h"
#include "uvm/eviction_lru.h"

namespace uvmsim {
namespace {

class DriverTest : public ::testing::Test {
 protected:
  static SimConfig config() {
    SimConfig cfg;
    cfg.set_gpu_memory(16ull << 20);  // 8 chunks of 2 MiB
    cfg.pma.slab_chunks = 2;
    // Steady-state costs only: the one-time cold start would mask the
    // per-fault numbers these tests assert.
    cfg.costs.driver_cold_start = 0;
    return cfg;
  }

  explicit DriverTest(SimConfig cfg = config()) : sim_(cfg) {
    sim_.malloc_managed(8ull << 20, "data");  // 4 blocks
  }

  void push_fault(VirtPage p, FaultAccessType a = FaultAccessType::Read) {
    FaultEntry e;
    e.page = p;
    e.block = block_of_page(p);
    e.range = sim_.address_space().range_of(p);
    e.access = a;
    ASSERT_TRUE(sim_.fault_buffer().push(e, sim_.event_queue().now()));
  }

  void interrupt_and_run() {
    sim_.driver().on_gpu_interrupt();
    sim_.event_queue().run();
  }

  Simulator sim_;
};

TEST_F(DriverTest, SingleFaultServiced) {
  push_fault(0);
  interrupt_and_run();
  const auto& c = sim_.driver().counters();
  EXPECT_EQ(c.faults_fetched, 1u);
  EXPECT_EQ(c.faults_serviced, 1u);
  EXPECT_EQ(c.passes, 1u);
  EXPECT_TRUE(sim_.address_space().block(0).gpu_resident.test(0));
  // Prefetching (default on) pulled in at least the big page.
  EXPECT_GE(c.pages_prefetched, 15u);
  EXPECT_GE(sim_.address_space().block(0).gpu_resident.count(), 16u);
}

TEST_F(DriverTest, FaultEndToEndCostInPaperRange) {
  push_fault(0);
  interrupt_and_run();
  // Paper/[1]: an isolated far-fault costs ~30-45 us; allow slack for the
  // prefetch-migration of the big page.
  SimTime total = sim_.event_queue().now();
  EXPECT_GE(total, 30 * kMicrosecond);
  EXPECT_LE(total, 120 * kMicrosecond);
}

TEST_F(DriverTest, MigrationMovesHostData) {
  push_fault(0);
  interrupt_and_run();
  const auto& c = sim_.driver().counters();
  EXPECT_GT(c.pages_migrated_h2d, 0u);
  EXPECT_EQ(c.pages_zeroed, 0u);  // host_populated range: data migrates
  EXPECT_GT(sim_.interconnect().bytes_moved(Direction::HostToDevice), 0u);
  // Paged migration unmaps the source.
  EXPECT_FALSE(sim_.address_space().block(0).cpu_resident.test(0));
}

TEST_F(DriverTest, UnpopulatedPagesAreZeroedNotMigrated) {
  RangeId rid = sim_.malloc_managed(2ull << 20, "gpu_born",
                                    /*host_populated=*/false);
  VirtPage p = sim_.address_space().range(rid).first_page;
  push_fault(p, FaultAccessType::Write);
  interrupt_and_run();
  const auto& c = sim_.driver().counters();
  EXPECT_GT(c.pages_zeroed, 0u);
  EXPECT_EQ(c.pages_migrated_h2d, 0u);
}

TEST_F(DriverTest, StaleFaultCountedNotReserviced) {
  push_fault(0);
  interrupt_and_run();
  auto migrated_before = sim_.driver().counters().pages_migrated_h2d;
  push_fault(0);  // page already resident
  interrupt_and_run();
  const auto& c = sim_.driver().counters();
  EXPECT_EQ(c.stale_faults, 1u);
  EXPECT_EQ(c.pages_migrated_h2d, migrated_before);
}

TEST_F(DriverTest, ProfilerCategoriesPopulated) {
  push_fault(0);
  push_fault(kPagesPerBlock);  // second block
  interrupt_and_run();
  const Profiler& p = sim_.driver().profiler();
  EXPECT_GT(p.total(CostCategory::PreProcess), 0u);
  EXPECT_GT(p.total(CostCategory::ServicePmaAlloc), 0u);
  EXPECT_GT(p.total(CostCategory::ServiceMigrate), 0u);
  EXPECT_GT(p.total(CostCategory::ServiceMap), 0u);
  EXPECT_GT(p.total(CostCategory::ReplayPolicy), 0u);
  EXPECT_EQ(p.total(CostCategory::Eviction), 0u);  // undersubscribed
}

TEST_F(DriverTest, ReplayIssuedPerBatchByDefault) {
  push_fault(0);
  interrupt_and_run();
  const auto& c = sim_.driver().counters();
  EXPECT_EQ(c.replays_issued, 1u);
  EXPECT_EQ(c.buffer_flushes, 1u);  // default policy is BatchFlush
}

TEST_F(DriverTest, FaultLogRecordsServiceOrder) {
  push_fault(kPagesPerBlock + 3);  // block 1 — but block 0 sorts first
  push_fault(5);
  interrupt_and_run();
  const auto& log = sim_.driver().fault_log().entries();
  // Two faults plus prefetch records; faults come per-bin in block order.
  ASSERT_GE(log.size(), 2u);
  std::vector<VirtPage> fault_pages;
  for (const auto& e : log) {
    if (e.kind == FaultLogKind::Fault) fault_pages.push_back(e.page);
  }
  ASSERT_EQ(fault_pages.size(), 2u);
  EXPECT_EQ(fault_pages[0], 5u);
  EXPECT_EQ(fault_pages[1], kPagesPerBlock + 3);
}

TEST_F(DriverTest, LruTouchOnFaultService) {
  push_fault(0);
  interrupt_and_run();
  push_fault(kPagesPerBlock);
  interrupt_and_run();
  auto& lru = dynamic_cast<LruEviction&>(sim_.driver().eviction_policy());
  auto order = lru.order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].block, 1u);  // MRU = most recently faulted
  EXPECT_EQ(order[1].block, 0u);
}

// --- eviction behaviour with a tiny GPU ---

class DriverEvictionTest : public DriverTest {
 protected:
  static SimConfig tiny() {
    SimConfig cfg;
    cfg.set_gpu_memory(4ull << 20);  // 2 chunks only
    cfg.pma.slab_chunks = 1;
    return cfg;
  }
  DriverEvictionTest() : DriverTest(tiny()) {}
};

TEST_F(DriverEvictionTest, ExhaustionTriggersEviction) {
  // The managed range (4 blocks) exceeds GPU memory (2 blocks).
  push_fault(0);
  interrupt_and_run();
  push_fault(kPagesPerBlock);
  interrupt_and_run();
  EXPECT_EQ(sim_.driver().counters().evictions, 0u);
  push_fault(2 * kPagesPerBlock);  // needs a third chunk -> evict
  interrupt_and_run();
  const auto& c = sim_.driver().counters();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.service_restarts, 1u);
  EXPECT_GT(c.pages_evicted, 0u);
  // Victim was block 0 (LRU); its pages went home.
  EXPECT_TRUE(sim_.address_space().block(0).gpu_resident.none());
  EXPECT_GT(sim_.address_space().block(0).cpu_resident.count(), 0u);
  EXPECT_GT(sim_.interconnect().bytes_moved(Direction::DeviceToHost), 0u);
  EXPECT_GT(sim_.driver().profiler().total(CostCategory::Eviction), 0u);
}

TEST_F(DriverEvictionTest, EvictedBlockCanReFault) {
  push_fault(0);
  interrupt_and_run();
  push_fault(kPagesPerBlock);
  interrupt_and_run();
  push_fault(2 * kPagesPerBlock);
  interrupt_and_run();  // evicts block 0
  push_fault(0);        // the paper's evict-then-refault worst case
  interrupt_and_run();
  const auto& c = sim_.driver().counters();
  EXPECT_EQ(c.evictions, 2u);
  EXPECT_TRUE(sim_.address_space().block(0).gpu_resident.test(0));
  EXPECT_EQ(sim_.address_space().block(0).eviction_count, 1u);
}

TEST_F(DriverEvictionTest, EvictionLoggedInFaultLog) {
  push_fault(0);
  interrupt_and_run();
  push_fault(kPagesPerBlock);
  interrupt_and_run();
  push_fault(2 * kPagesPerBlock);
  interrupt_and_run();
  bool saw_eviction = false;
  for (const auto& e : sim_.driver().fault_log().entries()) {
    saw_eviction |= (e.kind == FaultLogKind::Eviction);
  }
  EXPECT_TRUE(saw_eviction);
}

}  // namespace
}  // namespace uvmsim
