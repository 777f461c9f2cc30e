// Workload-suite tests: every generator must build, run to completion
// undersubscribed, and show its characteristic pattern properties.
#include "workloads/registry.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/simulator.h"
#include "workloads/regular.h"
#include "workloads/sgemm.h"
#include "workloads/strided.h"

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


// --- strided records against the explicit page lists they replace ---

/// One record as the engine sees it: flags plus pages in lane order.
struct FlatRecord {
  bool write;
  std::uint32_t compute_ns;
  std::vector<LanePage> pages;
  bool operator==(const FlatRecord&) const = default;
};
/// blocks -> warps -> records, walking generated blocks in order.
using FlatKernel = std::vector<std::vector<std::vector<FlatRecord>>>;

FlatKernel flatten(const KernelSpec& k) {
  FlatKernel out;
  ThreadBlockSpec slot;
  std::vector<LanePage> buf;
  for (std::uint32_t b = 0; b < k.block_count(); ++b) {
    auto& blk = out.emplace_back();
    for (const AccessStream& s : k.block(b, slot).warps) {
      auto& warp = blk.emplace_back();
      for (std::size_t i = 0; i < s.size(); ++i) {
        const auto pages = s.pages(i, buf);
        EXPECT_EQ(pages.size(), s.record(i).page_count);
        warp.push_back({s.record(i).write, s.record(i).compute_ns,
                        {pages.begin(), pages.end()}});
      }
    }
  }
  return out;
}

/// Sets `wl` up on a fresh simulator and flattens its only kernel; `first`
/// receives each range's first page.
FlatKernel generated(Workload& wl, std::vector<VirtPage>& first) {
  Simulator sim(cfg_64mib());
  wl.setup(sim);
  for (const auto& r : sim.address_space().ranges()) {
    first.push_back(r.first_page);
  }
  EXPECT_EQ(sim.queued_kernels().size(), 1u);
  return flatten(*sim.queued_kernels().at(0));
}

/// The explicit-list sgemm grid: each access concatenates the pages of its
/// rows' segments and add() drops repeats.
FlatKernel sgemm_reference(std::uint64_t n, const std::vector<VirtPage>& m) {
  constexpr std::uint64_t kT = SgemmWorkload::kTile;
  const std::uint64_t nt = n / kT;
  GridBuilder g("sgemm");
  std::vector<LanePage> pages;
  const auto tile = [&](VirtPage first, std::uint64_t r0, std::uint64_t c0) {
    pages.clear();
    for (std::uint64_t r = r0; r < r0 + kT / 8; ++r) {
      append_pages_for_bytes(pages, first, (r * n + c0) * 4, kT * 4);
    }
    return std::span<const LanePage>(pages);
  };
  for (std::uint64_t by = 0; by < nt; ++by) {
    for (std::uint64_t bx = 0; bx < nt; ++bx) {
      for (std::uint64_t w = 0; w < 8; ++w) {
        AccessStream& s = g.new_warp();
        const std::uint64_t r0 = w * (kT / 8);
        for (std::uint64_t kk = 0; kk < nt; ++kk) {
          s.add(tile(m[0], by * kT + r0, kk * kT), false, 1500);
          s.add(tile(m[1], kk * kT + r0, bx * kT), false, 1500);
        }
        s.add(tile(m[2], by * kT + r0, bx * kT), true, 500);
      }
    }
  }
  return flatten(g.build());
}

TEST(StridedRecords, SgemmMatchesExplicitPageLists) {
  // n = 128..896: a 512-byte tile row shares its page with the next rows,
  // so the dedup is exercised; n >= 1024: each row is a page or more apart.
  for (std::uint64_t n : {128u, 256u, 384u, 896u, 1024u, 1152u}) {
    SgemmWorkload wl(n);
    std::vector<VirtPage> first;
    const FlatKernel got = generated(wl, first);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(got, sgemm_reference(n, first)) << "n=" << n;
  }
}

TEST(StridedRecords, RegularMatchesExplicitRuns) {
  RegularTouch wl(100 * kPageSize);  // 3 full 32-page runs + a 4-page tail
  std::vector<VirtPage> first;
  const FlatKernel got = generated(wl, first);
  GridBuilder g("regular_touch");
  for (std::uint64_t p0 = 0; p0 < 100; p0 += 32) {
    std::vector<LanePage> run;
    for (std::uint64_t p = p0; p < std::min<std::uint64_t>(p0 + 32, 100); ++p) {
      run.push_back(lane_page(first.at(0) + p));
    }
    g.new_warp().add(run, true, 500);
  }
  EXPECT_EQ(got, flatten(g.build()));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].back()[0].pages.size(), 4u);
}

TEST(StridedRecords, StridedMatchesExplicitLanes) {
  // 600 pages at stride 16: one full warp plus a 6-lane tail. Stride 1000
  // is past the range end after one lane.
  for (std::uint32_t stride : {1u, 16u, 1000u}) {
    StridedTouch wl(600 * kPageSize, stride);
    std::vector<VirtPage> first;
    const FlatKernel got = generated(wl, first);
    GridBuilder g("strided_touch");
    for (std::uint64_t p = 0; p < 600;) {
      std::vector<LanePage> lanes;
      for (int lane = 0; lane < 32 && p < 600; ++lane, p += stride) {
        lanes.push_back(lane_page(first.at(0) + p));
      }
      g.new_warp().add(lanes, true, 500);
    }
    EXPECT_EQ(got, flatten(g.build())) << "stride=" << stride;
  }
}

TEST(StridedRecords, SgemmGridIsGeneratedPerBlock) {
  Simulator sim(cfg_64mib());
  SgemmWorkload wl(384);
  wl.setup(sim);
  const KernelSpec& k = *sim.queued_kernels().at(0);
  EXPECT_TRUE(k.blocks.empty());
  EXPECT_EQ(k.block_count(), 9u);
  EXPECT_EQ(k.total_warps(), 72u);
  sim.run();
}

}  // namespace
}  // namespace uvmsim
