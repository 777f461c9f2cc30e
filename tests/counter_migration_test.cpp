// Access-counter-driven promotion of hot remote-mapped pages
// (uvm_perf_access_counters-style migration, paper §VI-B).
#include <gtest/gtest.h>

#include "core/simulator.h"
#include "workloads/workload.h"

namespace uvmsim {
namespace {

SimConfig promo_cfg(bool promotion) {
  SimConfig cfg;
  cfg.set_gpu_memory(32ull << 20);
  cfg.enable_fault_log = false;
  // One sweep of a 64 KB region is 16 accesses; the threshold must exceed
  // that so only re-read (hot) regions notify.
  cfg.access_counters.threshold = 48;
  cfg.driver.access_counter_migration = promotion;
  return cfg;
}

/// A kernel that re-reads the first big page of `r` `reps` times (hot) and
/// touches the rest once (cold).
KernelSpec hot_cold_kernel(const VaRange& r, std::uint32_t reps) {
  GridBuilder g("hot_cold");
  AccessStream& hot = g.new_warp();
  for (std::uint32_t i = 0; i < reps; ++i) {
    hot.add_run(r.first_page, kPagesPerBigPage, false, 300);
  }
  for (std::uint64_t p = kPagesPerBigPage; p < r.num_pages; p += 32) {
    auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(32, r.num_pages - p));
    g.new_warp().add_run(r.first_page + p, n, false, 300);
  }
  return g.build(static_cast<double>(r.num_pages + reps));
}

RunResult run_case(bool promotion, std::uint32_t reps = 64) {
  Simulator sim(promo_cfg(promotion));
  RangeId rid = sim.malloc_managed(4ull << 20, "table");
  MemAdvise a;
  a.remote_map = true;
  sim.mem_advise(rid, a);
  sim.launch(hot_cold_kernel(sim.address_space().range(rid), reps));
  return sim.run();
}

TEST(CounterMigration, HotRemotePagesGetPromoted) {
  RunResult r = run_case(true);
  EXPECT_GT(r.counters.counter_promoted_pages, 0u);
  EXPECT_LE(r.counters.counter_promoted_pages, kPagesPerBigPage);
  EXPECT_GT(r.counters.access_notifications, 0u);
}

TEST(CounterMigration, DisabledKeepsEverythingRemote) {
  RunResult r = run_case(false);
  EXPECT_EQ(r.counters.counter_promoted_pages, 0u);
  EXPECT_EQ(r.resident_pages_at_end, 0u);  // pure zero-copy run
}

TEST(CounterMigration, PromotedPagesBecomeLocallyResident) {
  Simulator sim(promo_cfg(true));
  RangeId rid = sim.malloc_managed(4ull << 20, "table");
  MemAdvise a;
  a.remote_map = true;
  sim.mem_advise(rid, a);
  const VaRange& r = sim.address_space().range(rid);
  sim.launch(hot_cold_kernel(r, 64));
  sim.run();

  const VaBlock& blk = sim.address_space().block_of(r.first_page);
  // The hot big page was promoted: local, not remote, host copy consumed.
  EXPECT_GT(blk.gpu_resident.count_range(0, kPagesPerBigPage), 0u);
  EXPECT_TRUE((blk.gpu_resident & blk.remote_mapped).none());
  // Cold remainder stays remote.
  EXPECT_GT(blk.remote_mapped.count(), 0u);
}

TEST(CounterMigration, PromotionZeroFillsNeverPopulatedPages) {
  // A range born on the GPU (no host initialisation): its remote mappings
  // point at never-populated pages, so promoting them must zero-fill like
  // every other population path instead of mapping garbage as resident.
  Simulator sim(promo_cfg(true));
  RangeId rid = sim.malloc_managed(4ull << 20, "scratch",
                                   /*host_populated=*/false);
  MemAdvise a;
  a.remote_map = true;
  sim.mem_advise(rid, a);
  const VaRange& r = sim.address_space().range(rid);
  sim.launch(hot_cold_kernel(r, 64));
  RunResult res = sim.run();

  EXPECT_GT(res.counters.counter_promoted_pages, 0u);
  EXPECT_GE(res.counters.pages_zeroed, res.counters.counter_promoted_pages);
  for (std::uint64_t p = 0; p < r.num_pages; p += kPagesPerBlock) {
    const VaBlock& blk = sim.address_space().block_of(r.first_page + p);
    EXPECT_TRUE(blk.gpu_resident.and_not(blk.ever_populated).none())
        << "block " << blk.id << " maps never-populated pages as resident";
  }
}

TEST(CounterMigration, PromotionSpeedsUpHotAccess) {
  // With enough re-reads, paying one migration beats paying the remote
  // latency on every access.
  RunResult promoted = run_case(true, 256);
  RunResult remote = run_case(false, 256);
  EXPECT_LT(promoted.total_kernel_time(), remote.total_kernel_time());
}

TEST(CounterMigration, PromotionUsesPma) {
  RunResult r = run_case(true);
  EXPECT_GT(r.counters.counter_promoted_pages, 0u);
  EXPECT_GT(r.resident_pages_at_end, 0u);
  // Accounting invariant still holds: H2D bytes == migrated pages.
  EXPECT_EQ(r.bytes_h2d, r.counters.pages_migrated_h2d * kPageSize);
}

}  // namespace
}  // namespace uvmsim
