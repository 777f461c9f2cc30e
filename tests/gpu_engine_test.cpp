// GPU engine tests with a minimal "instant driver" stub: on interrupt it
// drains the fault buffer, maps every faulted page, and issues a replay —
// isolating warp/fault semantics from driver policy.
#include "gpu/gpu_engine.h"

#include <gtest/gtest.h>

#include <functional>

#include "core/simulator.h"
#include "mem/page_table.h"
#include "workloads/registry.h"

namespace uvmsim {
namespace {

class GpuEngineTest : public ::testing::Test {
 protected:
  GpuEngineTest()
      : pt_(as_),
        fb_(FaultBuffer::Config{}),
        ac_(AccessCounters::Config{}, false),
        gpu_(cfg(), /*seed=*/0x5EED, eq_, as_, pt_, fb_, ac_) {
    rid_ = as_.create_range(8ull << 20, "data");  // 4 blocks
  }

  static GpuEngine::Config cfg() {
    GpuEngine::Config c;
    c.num_sms = 4;
    c.max_blocks_per_sm = 2;
    c.utlb_fault_slots = 8;  // small slots so throttling is observable
    return c;
  }

  /// Installs the instant-service stub driver. `on_interrupt`, if set,
  /// runs first on every interrupt.
  void install_instant_driver(std::function<void()> on_interrupt = {}) {
    gpu_.set_interrupt_handler([this, on_interrupt] {
      if (on_interrupt) on_interrupt();
      if (service_scheduled_) return;
      service_scheduled_ = true;
      eq_.schedule_in(1000, [this] {
        service_scheduled_ = false;
        while (auto e = fb_.pop()) {
          PageMask m;
          m.set(page_in_block(e->page));
          pt_.map_pages(as_.block(e->block), m);
          ++serviced_;
        }
        gpu_.replay();
      });
    });
  }

  KernelSpec touch_kernel(std::uint64_t pages, std::uint32_t per_warp = 32) {
    KernelSpec k;
    k.name = "touch";
    VirtPage first = as_.range(rid_).first_page;
    for (std::uint64_t p = 0; p < pages; p += per_warp) {
      if (k.blocks.empty() || k.blocks.back().warps.size() == 8) {
        k.blocks.emplace_back();
      }
      AccessStream s;
      auto count = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(per_warp, pages - p));
      s.add_run(first + p, count, true, 500);
      k.blocks.back().warps.push_back(std::move(s));
    }
    return k;
  }

  EventQueue eq_;
  AddressSpace as_;
  PageTable pt_;
  FaultBuffer fb_;
  AccessCounters ac_;
  GpuEngine gpu_;
  RangeId rid_ = 0;
  bool service_scheduled_ = false;
  std::uint64_t serviced_ = 0;
};

TEST_F(GpuEngineTest, ResidentKernelCompletesWithoutFaults) {
  for (std::size_t b = 0; b < as_.num_blocks(); ++b) {
    as_.block(b).gpu_resident.set_range(0, as_.block(b).num_pages);
  }
  KernelSpec k = touch_kernel(256);
  bool done = false;
  gpu_.launch(&k, [&] { done = true; });
  eq_.run();
  EXPECT_TRUE(done);
  ASSERT_EQ(gpu_.kernel_stats().size(), 1u);
  EXPECT_EQ(gpu_.kernel_stats()[0].faults_raised, 0u);
  EXPECT_EQ(gpu_.kernel_stats()[0].page_touches, 256u);
  EXPECT_GT(gpu_.kernel_stats()[0].completed_at, 0u);
}

TEST_F(GpuEngineTest, FaultingKernelStallsUntilReplay) {
  install_instant_driver();
  KernelSpec k = touch_kernel(64);
  bool done = false;
  gpu_.launch(&k, [&] { done = true; });
  eq_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(serviced_, 64u);
  const auto& ks = gpu_.kernel_stats()[0];
  EXPECT_EQ(ks.faults_raised, 64u);
  EXPECT_GT(ks.stall_ns, 0u);
  EXPECT_GE(ks.replays_seen, 1u);
}

TEST_F(GpuEngineTest, EveryTouchedPageEndsResident) {
  install_instant_driver();
  KernelSpec k = touch_kernel(300);
  gpu_.launch(&k);
  eq_.run();
  for (VirtPage p = 0; p < 300; ++p) EXPECT_TRUE(pt_.translate(p));
}

TEST_F(GpuEngineTest, WritesMarkDirtyAndPopulated) {
  install_instant_driver();
  KernelSpec k = touch_kernel(32);
  gpu_.launch(&k);
  eq_.run();
  EXPECT_EQ(as_.block(0).dirty.count_range(0, 32), 32u);
}

TEST_F(GpuEngineTest, PendingFaultCoalescing) {
  install_instant_driver();
  // Two warps touching the SAME page: only one buffer entry per replay
  // round (µTLB coalescing), the other warp parks silently.
  KernelSpec k;
  k.name = "dup";
  k.blocks.emplace_back();
  for (int w = 0; w < 2; ++w) {
    AccessStream s;
    s.add_run(as_.range(rid_).first_page, 1, false, 100);
    k.blocks.back().warps.push_back(std::move(s));
  }
  bool done = false;
  gpu_.launch(&k, [&] { done = true; });
  eq_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(gpu_.kernel_stats()[0].faults_raised, 1u);
  EXPECT_EQ(gpu_.faults_coalesced(), 1u);
}

TEST_F(GpuEngineTest, FaultSlotThrottling) {
  install_instant_driver();
  // One SM (4 SMs but one block), 8 fault slots, a warp touching 32
  // distinct pages: only 8 entries surface per replay round.
  KernelSpec k = touch_kernel(32);
  k.blocks.resize(1);
  gpu_.launch(&k);
  eq_.run();
  EXPECT_GT(gpu_.faults_throttled(), 0u);
  // All pages still end up resident (liveness through replays).
  for (VirtPage p = 0; p < 32; ++p) EXPECT_TRUE(pt_.translate(p));
}

TEST_F(GpuEngineTest, KernelsRunSequentially) {
  install_instant_driver();
  KernelSpec k1 = touch_kernel(32);
  KernelSpec k2 = touch_kernel(32);
  std::vector<int> order;
  gpu_.launch(&k1, [&] { order.push_back(1); });
  gpu_.launch(&k2, [&] { order.push_back(2); });
  eq_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  ASSERT_EQ(gpu_.kernel_stats().size(), 2u);
  EXPECT_LE(gpu_.kernel_stats()[0].completed_at,
            gpu_.kernel_stats()[1].launched_at);
}

TEST_F(GpuEngineTest, SecondKernelHitsWarmPages) {
  install_instant_driver();
  KernelSpec k1 = touch_kernel(64);
  KernelSpec k2 = touch_kernel(64);
  gpu_.launch(&k1);
  gpu_.launch(&k2);
  eq_.run();
  EXPECT_GT(gpu_.kernel_stats()[0].faults_raised, 0u);
  EXPECT_EQ(gpu_.kernel_stats()[1].faults_raised, 0u);
  // Warm kernel is faster (both pay launch overhead, only k1 pays faults).
  EXPECT_LT(gpu_.kernel_stats()[1].duration(),
            gpu_.kernel_stats()[0].duration());
}

TEST_F(GpuEngineTest, UtlbHitsAccumulate) {
  for (std::size_t b = 0; b < as_.num_blocks(); ++b) {
    as_.block(b).gpu_resident.set_range(0, as_.block(b).num_pages);
  }
  // Two records touching the same page: second access hits the µTLB.
  KernelSpec k;
  k.name = "hit";
  k.blocks.emplace_back();
  AccessStream s;
  s.add_run(0, 1, false, 100);
  s.add_run(0, 1, false, 100);
  k.blocks.back().warps.push_back(std::move(s));
  gpu_.launch(&k);
  eq_.run();
  EXPECT_GE(gpu_.utlb_hits(), 1u);
  EXPECT_GE(gpu_.utlb_misses(), 1u);
}

TEST_F(GpuEngineTest, InvalidateTlbsForcesWalks) {
  for (std::size_t b = 0; b < as_.num_blocks(); ++b) {
    as_.block(b).gpu_resident.set_range(0, as_.block(b).num_pages);
  }
  KernelSpec k = touch_kernel(32);
  gpu_.launch(&k);
  eq_.run();
  auto misses_before = gpu_.utlb_misses();
  gpu_.invalidate_tlbs();
  KernelSpec k2 = touch_kernel(32);
  gpu_.launch(&k2);
  eq_.run();
  EXPECT_GT(gpu_.utlb_misses(), misses_before);
}

TEST_F(GpuEngineTest, EmptyKernelThrows) {
  KernelSpec k;
  EXPECT_THROW(gpu_.launch(&k), std::invalid_argument);
  EXPECT_THROW(gpu_.launch(nullptr), std::invalid_argument);
}

TEST_F(GpuEngineTest, ResidentAccessClearsPrefetchedUnused) {
  VaBlock& blk = as_.block(0);
  blk.gpu_resident.set_range(0, 32);
  blk.prefetched_unused.set_range(0, 32);
  KernelSpec k = touch_kernel(32);
  gpu_.launch(&k);
  eq_.run();
  EXPECT_TRUE(blk.prefetched_unused.none());
}

TEST_F(GpuEngineTest, AddressSpaceGrowsAfterLaunch) {
  KernelSpec a = touch_kernel(256);
  KernelSpec b;
  bool a_done = false;
  bool b_done = false;
  VirtPage b_first = 0;
  // On A's first interrupt, while its faults are pending, a new range
  // appears and a kernel on it launches in another stream. Its two warps
  // touch the same four pages of the range's second block, so the later
  // warp's lanes coalesce.
  install_instant_driver([&] {
    if (b_first != 0) return;
    EXPECT_TRUE(gpu_.has_stalled_warps());
    const RangeId rid_b = as_.create_range(4ull << 20, "b");  // 2 blocks
    b_first = as_.range(rid_b).first_page + kPagesPerBlock;
    b.name = "b";
    b.blocks.emplace_back();
    for (int w = 0; w < 2; ++w) {
      AccessStream s;
      s.add_run(b_first, 4, false, 100);
      b.blocks.back().warps.push_back(std::move(s));
    }
    gpu_.launch(&b, [&] { b_done = true; }, 1);
  });
  gpu_.launch(&a, [&] { a_done = true; });
  eq_.run();
  EXPECT_TRUE(a_done);
  ASSERT_TRUE(b_done);
  ASSERT_EQ(gpu_.kernel_stats().size(), 2u);
  EXPECT_EQ(gpu_.kernel_stats()[1].faults_raised, 4u);
  EXPECT_EQ(gpu_.kernel_stats()[1].page_touches, 8u);
  for (VirtPage p = b_first; p < b_first + 4; ++p) {
    EXPECT_TRUE(pt_.translate(p));
  }
  // A's warps touch distinct pages, so B's later warp's four lanes are the
  // only ones that coalesce. The throttle count was recorded with the
  // hash-set pending-fault implementation this engine replaced.
  EXPECT_EQ(gpu_.faults_coalesced(), 4u);
  EXPECT_EQ(gpu_.faults_throttled(), 3968u);
}

/// Exact GPU fault counters of small simulations with two fault slots per
/// SM, at 4 KB and 64 KB fault granularity. The values were recorded with
/// the hash-set pending-fault implementation this engine replaced; any
/// change to how lanes coalesce, throttle or raise shows up here.
TEST(GpuEngineCounters, CoalescingCountsArePinned) {
  struct Case {
    const char* workload;
    std::uint32_t granularity;
    std::uint64_t raised, coalesced, throttled, utlb_hits, utlb_misses;
  };
  const Case cases[] = {
      {"random", 1, 256, 0, 24064, 1751, 25641},
      {"random", 16, 112, 1580, 12276, 1751, 15289},
      {"regular", 1, 350, 0, 46946, 2880, 47488},
      {"regular", 16, 112, 1680, 15200, 2880, 17184},
  };
  for (const Case& c : cases) {
    SimConfig cfg;
    cfg.set_gpu_memory(8ull << 20);
    cfg.set_host_page_size(std::uint64_t{c.granularity} * kPageSize);
    cfg.gpu.utlb_fault_slots = 2;
    cfg.enable_fault_log = false;
    Simulator sim(cfg);
    auto wl = make_workload(c.workload, 12ull << 20);
    wl->setup(sim);
    const RunResult r = sim.run();
    const std::string at =
        std::string(c.workload) + " @" + std::to_string(c.granularity);
    EXPECT_EQ(r.total_faults_raised(), c.raised) << at;
    EXPECT_EQ(sim.gpu().faults_coalesced(), c.coalesced) << at;
    EXPECT_EQ(sim.gpu().faults_throttled(), c.throttled) << at;
    EXPECT_EQ(r.utlb_hits, c.utlb_hits) << at;
    EXPECT_EQ(r.utlb_misses, c.utlb_misses) << at;
  }
}

}  // namespace
}  // namespace uvmsim
