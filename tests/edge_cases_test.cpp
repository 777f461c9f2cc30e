// System edge cases: tiny fault buffers, extreme batch sizes, adaptive
// prefetching under pressure, access-counter eviction end to end, and
// boundary workload sizes.
#include <gtest/gtest.h>

#include "core/simulator.h"
#include "workloads/registry.h"
#include "workloads/regular.h"

namespace uvmsim {
namespace {

SimConfig base() {
  SimConfig cfg;
  cfg.set_gpu_memory(16ull << 20);
  cfg.enable_fault_log = false;
  return cfg;
}

TEST(EdgeCases, TinyFaultBufferStillCompletes) {
  SimConfig cfg = base();
  cfg.fault_buffer.capacity = 8;  // drops most concurrent faults
  Simulator sim(cfg);
  RegularTouch wl(4ull << 20);
  wl.setup(sim);
  RunResult r = sim.run();
  EXPECT_EQ(r.resident_pages_at_end, 1024u);
  EXPECT_GT(r.buffer_dropped, 0u);  // drops happened and liveness held
}

TEST(EdgeCases, TinyBufferWithOncePolicy) {
  SimConfig cfg = base();
  cfg.fault_buffer.capacity = 8;
  cfg.driver.replay_policy = ReplayPolicyKind::Once;
  Simulator sim(cfg);
  RegularTouch wl(2ull << 20);
  wl.setup(sim);
  RunResult r = sim.run();
  EXPECT_EQ(r.resident_pages_at_end, 512u);
}

TEST(EdgeCases, HugeBatchSwallowsEverything) {
  SimConfig cfg = base();
  cfg.driver.batch_size = 100000;
  Simulator sim(cfg);
  RegularTouch wl(4ull << 20);
  wl.setup(sim);
  RunResult r = sim.run();
  EXPECT_EQ(r.resident_pages_at_end, 1024u);
}

TEST(EdgeCases, SinglePageWorkload) {
  Simulator sim(base());
  RegularTouch wl(1);  // rounds up to one page
  wl.setup(sim);
  RunResult r = sim.run();
  EXPECT_EQ(r.counters.faults_serviced, 1u);
  EXPECT_EQ(r.resident_pages_at_end, 1u);
}

TEST(EdgeCases, ExactCapacityNoEviction) {
  SimConfig cfg = base();
  Simulator sim(cfg);
  RegularTouch wl(cfg.gpu_memory());  // exactly 100 %
  wl.setup(sim);
  RunResult r = sim.run();
  EXPECT_EQ(r.counters.evictions, 0u);
  EXPECT_EQ(r.resident_pages_at_end * kPageSize, cfg.gpu_memory());
}

TEST(EdgeCases, OnePageOverCapacityEvicts) {
  SimConfig cfg = base();
  Simulator sim(cfg);
  RegularTouch wl(cfg.gpu_memory() + kVaBlockSize);  // one extra block
  wl.setup(sim);
  RunResult r = sim.run();
  EXPECT_GT(r.counters.evictions, 0u);
  EXPECT_LE(r.resident_pages_at_end * kPageSize, cfg.gpu_memory());
}

TEST(EdgeCases, AdaptivePrefetchEscalatesUnderPressure) {
  SimConfig cfg = base();
  cfg.driver.prefetch = PrefetchMode::Adaptive;
  Simulator sim(cfg);
  auto wl = make_workload("regular", 24ull << 20);  // 150 %
  wl->setup(sim);
  RunResult r = sim.run();
  ASSERT_NE(sim.driver().adaptive(), nullptr);
  EXPECT_GT(sim.driver().adaptive()->escalations(), 0u);
  EXPECT_GT(r.counters.evictions, 0u);
}

TEST(EdgeCases, AdaptiveStaysAggressiveUndersubscribed) {
  SimConfig cfg = base();
  cfg.driver.prefetch = PrefetchMode::Adaptive;
  Simulator sim(cfg);
  auto wl = make_workload("regular", 4ull << 20);
  wl->setup(sim);
  sim.run();
  EXPECT_EQ(sim.driver().adaptive()->threshold(), 1u);
  EXPECT_EQ(sim.driver().adaptive()->escalations(), 0u);
}

TEST(EdgeCases, AccessCounterEvictionEndToEnd) {
  SimConfig cfg = base();
  cfg.driver.eviction_policy = EvictionPolicyKind::AccessCounter;
  cfg.access_counters.threshold = 8;
  Simulator sim(cfg);
  auto wl = make_workload("stream", 24ull << 20);  // oversubscribed
  wl->setup(sim);
  RunResult r = sim.run();
  EXPECT_GT(r.counters.evictions, 0u);
  EXPECT_GT(r.counters.access_notifications, 0u);
  EXPECT_LE(r.resident_pages_at_end * kPageSize, cfg.gpu_memory());
}

TEST(EdgeCases, ZeroJitterIsDeterministicAndRuns) {
  SimConfig cfg = base();
  cfg.gpu.jitter_ns = 0;
  Simulator sim(cfg);
  RegularTouch wl(2ull << 20);
  wl.setup(sim);
  RunResult r = sim.run();
  EXPECT_EQ(r.resident_pages_at_end, 512u);
}

TEST(EdgeCases, SingleSmMachine) {
  SimConfig cfg = base();
  cfg.gpu.num_sms = 1;
  cfg.gpu.max_blocks_per_sm = 1;
  Simulator sim(cfg);
  RegularTouch wl(2ull << 20);
  wl.setup(sim);
  RunResult r = sim.run();
  EXPECT_EQ(r.resident_pages_at_end, 512u);
}

TEST(EdgeCases, ManyRangesInterleaved) {
  SimConfig cfg = base();
  // Demand paging only: each access then faults exactly once, independent
  // of how the backing policy shapes residency under pressure.
  cfg.driver.prefetch = PrefetchMode::Off;
  Simulator sim(cfg);
  // 16 small allocations, one kernel touching them all round-robin.
  std::vector<const VaRange*> ranges;
  std::vector<RangeId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(
        sim.malloc_managed(256ull << 10, "r" + std::to_string(i)));
  }
  for (RangeId id : ids) ranges.push_back(&sim.address_space().range(id));

  KernelSpec k;
  k.name = "interleave";
  k.blocks.emplace_back();
  AccessStream s;
  for (std::uint64_t j = 0; j < 64; ++j) {
    const VaRange* r = ranges[j % ranges.size()];
    s.add_run(r->first_page + (j / ranges.size()), 1, true, 200);
  }
  k.blocks.back().warps.push_back(std::move(s));
  sim.launch(std::move(k));
  RunResult r = sim.run();
  EXPECT_EQ(r.counters.faults_serviced, 64u);
}

TEST(EdgeCases, ColdStartChargedExactlyOnce) {
  SimConfig cfg = base();
  cfg.costs.driver_cold_start = 1 * kMillisecond;
  Simulator sim(cfg);
  RegularTouch a(1ull << 20), b(1ull << 20);
  a.setup(sim);
  b.setup(sim);
  RunResult r = sim.run();
  // ServiceOther holds the cold start once, not once per kernel/pass.
  EXPECT_GE(r.profiler.total(CostCategory::ServiceOther), 1 * kMillisecond);
  EXPECT_LT(r.profiler.total(CostCategory::ServiceOther), 2 * kMillisecond);
}

}  // namespace
}  // namespace uvmsim
