// Cross-cutting property tests: system-level invariants that must hold for
// every (workload, replay policy, prefetch setting) combination.
#include <gtest/gtest.h>

#include <tuple>

#include "core/simulator.h"
#include "workloads/registry.h"

namespace uvmsim {
namespace {

using Param = std::tuple<std::string, ReplayPolicyKind, bool>;

class SystemProperties : public ::testing::TestWithParam<Param> {
 protected:
  static SimConfig config(ReplayPolicyKind policy, bool prefetch) {
    SimConfig cfg;
    cfg.set_gpu_memory(24ull << 20);
    cfg.driver.replay_policy = policy;
    cfg.driver.prefetch = prefetch ? PrefetchMode::Tree : PrefetchMode::Off;
    cfg.enable_fault_log = false;
    return cfg;
  }
};

TEST_P(SystemProperties, InvariantsHold) {
  auto [name, policy, prefetch] = GetParam();
  SimConfig cfg = config(policy, prefetch);

  Simulator sim(cfg);
  auto wl = make_workload(name, 8ull << 20);  // undersubscribed
  wl->setup(sim);
  RunResult r = sim.run();

  // 1. Liveness: every kernel completed (run() throws otherwise).
  ASSERT_GE(r.kernels.size(), 1u);

  // 2. Residency never exceeds physical capacity.
  EXPECT_LE(r.resident_pages_at_end * kPageSize, cfg.gpu_memory());

  // 3. PMA accounting is consistent with block backing.
  std::uint64_t backed_bytes = 0;
  for (std::size_t b = 0; b < sim.address_space().num_blocks(); ++b) {
    backed_bytes += sim.address_space().block(b).backing.backed_bytes();
  }
  EXPECT_EQ(backed_bytes, sim.pma().bytes_in_use());

  // 4. Interconnect bytes match page movement exactly.
  EXPECT_EQ(r.bytes_h2d,
            (r.counters.pages_migrated_h2d) * kPageSize);
  EXPECT_EQ(r.bytes_d2h, r.counters.pages_evicted * kPageSize);

  // 5. Fault conservation: everything fetched is accounted for.
  EXPECT_EQ(r.counters.faults_fetched,
            r.counters.faults_serviced + r.counters.duplicate_faults +
                r.counters.stale_faults);

  // 6. Undersubscribed: no evictions, no writeback.
  EXPECT_EQ(r.counters.evictions, 0u);
  EXPECT_EQ(r.counters.pages_evicted, 0u);

  // 7. Prefetch accounting.
  if (!prefetch) {
    EXPECT_EQ(r.counters.pages_prefetched, 0u);
  }
  EXPECT_LE(r.wasted_prefetch_at_end, r.counters.pages_prefetched);

  // 8. Driver did real, categorized work.
  EXPECT_GT(r.profiler.grand_total(), 0u);
  EXPECT_GT(r.profiler.total(CostCategory::PreProcess), 0u);
  EXPECT_GT(r.profiler.service_total(), 0u);

  // 9. Replays were issued (any policy must unblock warps).
  EXPECT_GT(r.counters.replays_issued, 0u);

  // 10. Flushes only under the flush policy.
  if (policy == ReplayPolicyKind::BatchFlush) {
    EXPECT_GT(r.counters.buffer_flushes, 0u);
  } else {
    EXPECT_EQ(r.counters.buffer_flushes, 0u);
  }
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  auto [name, policy, prefetch] = info.param;
  return name + "_" + to_string(policy) + (prefetch ? "_pf" : "_nopf");
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SystemProperties,
    ::testing::Combine(::testing::ValuesIn(workload_names()),
                       ::testing::Values(ReplayPolicyKind::Block,
                                         ReplayPolicyKind::Batch,
                                         ReplayPolicyKind::BatchFlush,
                                         ReplayPolicyKind::Once),
                       ::testing::Bool()),
    param_name);

// --- oversubscription properties on the cheap workloads ---

class OversubProperties
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(OversubProperties, InvariantsHoldUnderEviction) {
  auto [name, ratio] = GetParam();
  SimConfig cfg;
  cfg.set_gpu_memory(16ull << 20);
  cfg.enable_fault_log = false;
  auto target = static_cast<std::uint64_t>(
      ratio * static_cast<double>(cfg.gpu_memory()));

  Simulator sim(cfg);
  auto wl = make_workload(name, target);
  wl->setup(sim);
  RunResult r = sim.run();

  EXPECT_LE(r.resident_pages_at_end * kPageSize, cfg.gpu_memory());
  EXPECT_GT(r.counters.evictions, 0u);
  EXPECT_EQ(r.bytes_d2h, r.counters.pages_evicted * kPageSize);
  // Thrash amplification: more data crossed H2D than the footprint.
  EXPECT_GE(r.bytes_h2d, r.total_bytes);
  // Eviction work was accounted.
  EXPECT_GT(r.profiler.total(CostCategory::Eviction), 0u);
  EXPECT_GT(r.counters.service_restarts, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, OversubProperties,
    ::testing::Combine(::testing::Values("regular", "stream", "sgemm"),
                       ::testing::Values(1.2, 1.5)),
    [](const auto& pinfo) {
      return std::get<0>(pinfo.param) + "_" +
             std::to_string(static_cast<int>(std::get<1>(pinfo.param) * 100));
    });

}  // namespace
}  // namespace uvmsim
