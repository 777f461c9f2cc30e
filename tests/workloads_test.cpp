// Workload-suite tests: every generator must build, run to completion
// undersubscribed, and show its characteristic pattern properties.
#include "workloads/registry.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/simulator.h"

namespace uvmsim {
namespace {

SimConfig cfg_64mib() {
  SimConfig cfg;
  cfg.set_gpu_memory(64ull << 20);
  cfg.enable_fault_log = false;
  return cfg;
}

RunResult run_workload(const std::string& name, std::uint64_t target,
                       SimConfig cfg = cfg_64mib()) {
  Simulator sim(cfg);
  auto wl = make_workload(name, target);
  wl->setup(sim);
  return sim.run();
}

class AllWorkloads : public ::testing::TestWithParam<std::string> {};

TEST_P(AllWorkloads, CompletesUndersubscribed) {
  RunResult r = run_workload(GetParam(), 16ull << 20);
  EXPECT_GE(r.kernels.size(), 1u);
  for (const auto& k : r.kernels) {
    EXPECT_GT(k.completed_at, k.launched_at) << k.name;
  }
  EXPECT_EQ(r.counters.evictions, 0u);
  EXPECT_GT(r.counters.faults_serviced, 0u);
}

TEST_P(AllWorkloads, FootprintNearTarget) {
  const std::uint64_t target = 16ull << 20;
  auto wl = make_workload(GetParam(), target);
  double ratio = static_cast<double>(wl->total_bytes()) /
                 static_cast<double>(target);
  EXPECT_GT(ratio, 0.25) << wl->total_bytes();
  EXPECT_LT(ratio, 2.5) << wl->total_bytes();
}

TEST_P(AllWorkloads, PrefetchingCutsFaults) {
  SimConfig with = cfg_64mib();
  SimConfig without = cfg_64mib();
  without.driver.prefetch = PrefetchMode::Off;
  if (GetParam() == "strided") {
    // Strided is built to starve the density tree (per-block density stays
    // below its threshold) — that is the PR 10 crossover premise. The learned
    // predictor is the policy that must cut its faults.
    with.driver.prefetch = PrefetchMode::Markov;
  }
  std::uint64_t f_with =
      run_workload(GetParam(), 16ull << 20, with).counters.faults_fetched;
  std::uint64_t f_without =
      run_workload(GetParam(), 16ull << 20, without).counters.faults_fetched;
  // Paper Table I: >= 64 % reduction on every app; we require >= 40 % to
  // absorb scale differences.
  EXPECT_GE(fault_reduction_percent(f_without, f_with), 40.0)
      << "with=" << f_with << " without=" << f_without;
}

TEST_P(AllWorkloads, DeterministicAcrossRuns) {
  RunResult a = run_workload(GetParam(), 8ull << 20);
  RunResult b = run_workload(GetParam(), 8ull << 20);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.counters.faults_fetched, b.counters.faults_fetched);
}

TEST_P(AllWorkloads, NameMatchesRegistry) {
  auto wl = make_workload(GetParam(), 8ull << 20);
  EXPECT_EQ(wl->name(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Suite, AllWorkloads,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& pinfo) { return pinfo.param; });

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_workload("nope", 1 << 20), std::invalid_argument);
}

TEST(Registry, ListsNineWorkloads) {
  EXPECT_EQ(workload_names().size(), 9u);
}

TEST(Workloads, RegularTouchesEveryPageOnce) {
  RunResult r = run_workload("regular", 8ull << 20);
  // 2048 pages; all migrated, none zeroed.
  EXPECT_EQ(r.counters.pages_migrated_h2d + r.counters.pages_zeroed,
            r.total_pages);
}

TEST(Workloads, RandomSlowerThanRegular) {
  // Paper §III-C / Fig. 3 (prefetching disabled): random is slower for the
  // same size — scattered faults bin into many VABlocks and fragment the
  // migration into many small DMA runs.
  SimConfig cfg = cfg_64mib();
  cfg.driver.prefetch = PrefetchMode::Off;
  RunResult reg = run_workload("regular", 16ull << 20, cfg);
  RunResult rnd = run_workload("random", 16ull << 20, cfg);
  EXPECT_GT(rnd.total_kernel_time(), reg.total_kernel_time());
  EXPECT_GT(rnd.profiler.service_total(), reg.profiler.service_total());
}

TEST(Workloads, RandomPrefetchBeatsRegularReduction) {
  // Paper Table I: random reaches 97.9 % reduction vs regular's 82.3 % —
  // scattered faults tip tree subtrees sooner.
  auto reduction = [](const std::string& name) {
    SimConfig without = cfg_64mib();
    without.driver.prefetch = PrefetchMode::Off;
    std::uint64_t f_without =
        run_workload(name, 16ull << 20, without).counters.faults_fetched;
    std::uint64_t f_with =
        run_workload(name, 16ull << 20).counters.faults_fetched;
    return fault_reduction_percent(f_without, f_with);
  };
  EXPECT_GT(reduction("random"), reduction("regular"));
}

TEST(Workloads, StreamUsesThreeRanges) {
  Simulator sim(cfg_64mib());
  auto wl = make_workload("stream", 8ull << 20);
  wl->setup(sim);
  EXPECT_EQ(sim.address_space().num_ranges(), 3u);
  sim.run();
}

TEST(Workloads, SgemmUsesThreeMatrices) {
  Simulator sim(cfg_64mib());
  auto wl = make_workload("sgemm", 8ull << 20);
  wl->setup(sim);
  EXPECT_EQ(sim.address_space().num_ranges(), 3u);
}

TEST(Workloads, CufftLaunchesForwardAndInversePasses) {
  Simulator sim(cfg_64mib());
  auto wl = make_workload("cufft", 8ull << 20);
  wl->setup(sim);
  RunResult r = sim.run();
  EXPECT_GE(r.kernels.size(), 2u);
  // Later passes hit warm pages: first kernel dominates fault count.
  std::uint64_t first = r.kernels[0].faults_raised;
  std::uint64_t rest = 0;
  for (std::size_t i = 1; i < r.kernels.size(); ++i) {
    rest += r.kernels[i].faults_raised;
  }
  EXPECT_GT(first, rest);
}

TEST(Workloads, HpgmgAllocatesLevelHierarchy) {
  Simulator sim(cfg_64mib());
  auto wl = make_workload("hpgmg", 16ull << 20);
  wl->setup(sim);
  ASSERT_GE(sim.address_space().num_ranges(), 3u);
  // Levels shrink.
  EXPECT_GT(sim.address_space().range(0).bytes,
            sim.address_space().range(1).bytes);
  sim.run();
}

TEST(Workloads, TealeafIteratesKernels) {
  Simulator sim(cfg_64mib());
  auto wl = make_workload("tealeaf", 8ull << 20);
  wl->setup(sim);
  RunResult r = sim.run();
  EXPECT_GE(r.kernels.size(), 2u);
  EXPECT_EQ(sim.address_space().num_ranges(), 6u);
}

TEST(Workloads, CusparseHasConversionAndSpmm) {
  Simulator sim(cfg_64mib());
  auto wl = make_workload("cusparse", 8ull << 20);
  wl->setup(sim);
  RunResult r = sim.run();
  EXPECT_EQ(r.kernels.size(), 2u);
  EXPECT_EQ(sim.address_space().num_ranges(), 4u);
}

}  // namespace
}  // namespace uvmsim
