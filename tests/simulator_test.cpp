// End-to-end Simulator tests: full UVM stack driven by real kernels.
#include "core/simulator.h"

#include <gtest/gtest.h>

#include "workloads/random_access.h"
#include "workloads/regular.h"

namespace uvmsim {
namespace {

SimConfig small_cfg() {
  SimConfig cfg;
  cfg.set_gpu_memory(32ull << 20);
  return cfg;
}

TEST(Simulator, RegularTouchCompletes) {
  Simulator sim(small_cfg());
  RegularTouch wl(8ull << 20);
  wl.setup(sim);
  RunResult r = sim.run();
  ASSERT_EQ(r.kernels.size(), 1u);
  EXPECT_GT(r.total_kernel_time(), 0u);
  EXPECT_EQ(r.total_pages, 2048u);
  // Every page was needed, so every page crossed the link exactly once.
  EXPECT_EQ(r.counters.pages_migrated_h2d, 2048u);
  EXPECT_EQ(r.bytes_h2d, 8ull << 20);
  EXPECT_EQ(r.bytes_d2h, 0u);
  EXPECT_EQ(r.resident_pages_at_end, 2048u);
}

TEST(Simulator, DeterministicForSameSeed) {
  auto run_once = [] {
    Simulator sim(small_cfg());
    RandomTouch wl(4ull << 20);
    wl.setup(sim);
    return sim.run();
  };
  RunResult a = run_once();
  RunResult b = run_once();
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.counters.faults_fetched, b.counters.faults_fetched);
  EXPECT_EQ(a.counters.pages_prefetched, b.counters.pages_prefetched);
  ASSERT_EQ(a.fault_log.size(), b.fault_log.size());
  for (std::size_t i = 0; i < a.fault_log.size(); ++i) {
    EXPECT_EQ(a.fault_log[i].page, b.fault_log[i].page);
    EXPECT_EQ(a.fault_log[i].time, b.fault_log[i].time);
  }
}

TEST(Simulator, DifferentSeedsDifferentInterleave) {
  auto run_once = [](std::uint64_t seed) {
    SimConfig cfg = small_cfg();
    cfg.seed = seed;
    Simulator sim(cfg);
    RandomTouch wl(4ull << 20);
    wl.setup(sim);
    return sim.run();
  };
  RunResult a = run_once(1);
  RunResult b = run_once(2);
  EXPECT_NE(a.end_time, b.end_time);
}

TEST(Simulator, PrefetchOffServicesEveryPageAsFault) {
  SimConfig cfg = small_cfg();
  cfg.driver.prefetch = PrefetchMode::Off;
  Simulator sim(cfg);
  RegularTouch wl(4ull << 20);  // 1024 pages
  wl.setup(sim);
  RunResult r = sim.run();
  EXPECT_EQ(r.counters.faults_serviced, 1024u);
  EXPECT_EQ(r.counters.pages_prefetched, 0u);
}

TEST(Simulator, PrefetchReducesFaults) {
  auto faults = [](bool prefetch) {
    SimConfig cfg = small_cfg();
    cfg.driver.prefetch = prefetch ? PrefetchMode::Tree : PrefetchMode::Off;
    Simulator sim(cfg);
    RegularTouch wl(8ull << 20);
    wl.setup(sim);
    return sim.run().counters.faults_fetched;
  };
  std::uint64_t without = faults(false);
  std::uint64_t with = faults(true);
  EXPECT_LT(with, without / 2);  // paper Table I: >= 64 % reduction
}

TEST(Simulator, ResidencyNeverExceedsCapacity) {
  SimConfig cfg = small_cfg();
  cfg.set_gpu_memory(8ull << 20);  // 4 blocks
  Simulator sim(cfg);
  RegularTouch wl(12ull << 20);  // 150 % oversubscription
  wl.setup(sim);
  RunResult r = sim.run();
  EXPECT_LE(r.resident_pages_at_end * kPageSize, cfg.gpu_memory());
  EXPECT_GT(r.counters.evictions, 0u);
  // Writes were evicted: data went back to the host.
  EXPECT_GT(r.bytes_d2h, 0u);
}

TEST(Simulator, PmaInUseMatchesBackedBytes) {
  Simulator sim(small_cfg());
  RegularTouch wl(8ull << 20);
  wl.setup(sim);
  sim.run();
  std::uint64_t backed_bytes = 0;
  for (std::size_t b = 0; b < sim.address_space().num_blocks(); ++b) {
    backed_bytes += sim.address_space().block(b).backing.backed_bytes();
  }
  EXPECT_EQ(backed_bytes, sim.pma().bytes_in_use());
}

TEST(Simulator, FaultLogDisabledStaysEmpty) {
  SimConfig cfg = small_cfg();
  cfg.enable_fault_log = false;
  Simulator sim(cfg);
  RegularTouch wl(4ull << 20);
  wl.setup(sim);
  RunResult r = sim.run();
  EXPECT_TRUE(r.fault_log.empty());
}

TEST(Simulator, MultipleKernelsSequential) {
  Simulator sim(small_cfg());
  RegularTouch wl(4ull << 20);
  wl.setup(sim);
  RegularTouch wl2(4ull << 20);  // second allocation + kernel
  wl2.setup(sim);
  RunResult r = sim.run();
  ASSERT_EQ(r.kernels.size(), 2u);
  EXPECT_LE(r.kernels[0].completed_at, r.kernels[1].launched_at);
}

TEST(Simulator, PrefillAllResidentSkipsDriver) {
  Simulator sim(small_cfg());
  RegularTouch wl(4ull << 20);
  wl.setup(sim);
  sim.prefill_all_resident();
  RunResult r = sim.run();
  EXPECT_EQ(r.counters.faults_fetched, 0u);
  EXPECT_EQ(r.bytes_h2d, 0u);
  EXPECT_EQ(r.kernels[0].faults_raised, 0u);
}

TEST(Simulator, WastedPrefetchTracked) {
  // Touch only the first page of each big page; the upgrade prefetches the
  // other 15, which no warp ever touches.
  SimConfig cfg = small_cfg();
  Simulator sim(cfg);
  RangeId rid = sim.malloc_managed(2ull << 20, "sparse");
  VirtPage first = sim.address_space().range(rid).first_page;
  KernelSpec k;
  k.name = "sparse_touch";
  k.blocks.emplace_back();
  AccessStream s;
  for (std::uint32_t bp = 0; bp < 4; ++bp) {
    s.add_run(first + bp * kPagesPerBigPage, 1, false, 500);
  }
  k.blocks.back().warps.push_back(std::move(s));
  sim.launch(std::move(k));
  RunResult r = sim.run();
  EXPECT_GT(r.wasted_prefetch_at_end, 0u);
  EXPECT_GT(r.counters.pages_prefetched, r.wasted_prefetch_at_end / 2);
}

TEST(Simulator, BatchSizeOneStillCompletes) {
  SimConfig cfg = small_cfg();
  cfg.driver.batch_size = 1;
  Simulator sim(cfg);
  RegularTouch wl(1ull << 20);
  wl.setup(sim);
  RunResult r = sim.run();
  EXPECT_EQ(r.resident_pages_at_end, 256u);
  EXPECT_GT(r.counters.passes, 1u);
}

}  // namespace
}  // namespace uvmsim
