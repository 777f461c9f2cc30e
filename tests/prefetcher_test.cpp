#include "uvm/prefetcher.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "prefetch_reference.h"
#include "sim/rng.h"

namespace uvmsim {
namespace {

VaBlock make_block(std::uint32_t num_pages = kPagesPerBlock) {
  VaBlock b;
  b.range = 0;
  b.num_pages = num_pages;
  return b;
}

PageMask mask_of(std::initializer_list<std::uint32_t> pages) {
  PageMask m;
  for (auto p : pages) m.set(p);
  return m;
}

TEST(Prefetcher, BigPageUpgradeAlone) {
  VaBlock b = make_block();
  // Density stage disabled (threshold > 100): only the 64 KB upgrade runs.
  auto res = Prefetcher::compute_fast(b, mask_of({5}),
                                      /*big_page_upgrade=*/true,
                                      /*threshold=*/101);
  // Pages 0-15 minus the faulted page 5.
  EXPECT_EQ(res.prefetch.count(), 15u);
  EXPECT_FALSE(res.prefetch.test(5));
  EXPECT_TRUE(res.prefetch.test(0));
  EXPECT_TRUE(res.prefetch.test(15));
  EXPECT_FALSE(res.prefetch.test(16));
  EXPECT_EQ(res.tree_updates, 0u);
}

TEST(Prefetcher, NoUpgradeNoTreeMeansNothing) {
  VaBlock b = make_block();
  auto res = Prefetcher::compute_fast(b, mask_of({5}), false, 101);
  EXPECT_TRUE(res.prefetch.none());
}

TEST(Prefetcher, UpgradeRespectsPartialBlocks) {
  VaBlock b = make_block(10);  // only 10 valid pages
  auto res = Prefetcher::compute_fast(b, mask_of({5}), true, 101);
  EXPECT_EQ(res.prefetch.count(), 9u);  // pages 0-9 minus the fault
  EXPECT_FALSE(res.prefetch.test(10));
}

TEST(Prefetcher, UpgradeFeedsDensityStage) {
  VaBlock b = make_block();
  // One fault in each of the two big pages of a 32-leaf subtree: upgrades
  // occupy 32 leaves; the 32-subtree is 100 % and the 64-subtree is 50 %,
  // so the region is those 32 pages. (Paper: "each fault fetches the entire
  // corresponding level five subtree", and five such faults cover a block.)
  auto res = Prefetcher::compute_fast(b, mask_of({0, 16}), true, 51);
  EXPECT_EQ(res.prefetch.count(), 30u);  // 32 minus the 2 faulted
  EXPECT_TRUE(res.prefetch.test(31));
  EXPECT_FALSE(res.prefetch.test(32));
  EXPECT_EQ(res.tree_updates, 2u);
}

TEST(Prefetcher, ScatteredFaultsUpgradeWithoutCascade) {
  VaBlock b = make_block();
  // One fault per 64-page region: upgrades occupy 8 x 16 = 128 leaves, but
  // each 32-leaf subtree is at exactly 50 % (not > 51 %), so the density
  // stage adds nothing beyond the upgrades.
  PageMask faults;
  for (std::uint32_t i = 0; i < 512; i += 64) faults.set(i);
  auto res = Prefetcher::compute_fast(b, faults, true, 51);
  EXPECT_EQ(res.prefetch.count(), 128u - 8u);
}

TEST(Prefetcher, CascadeAcrossBatchesFillsBlock) {
  // Residency accumulated over successive batches tips ever-larger
  // subtrees: scattered faults eventually fetch the whole VABlock with far
  // fewer faults than pages (paper §IV-A's cascade).
  VaBlock b = make_block();
  std::uint32_t faults_needed = 0;
  for (std::uint32_t leaf = 0; leaf < 512 && !b.fully_resident();
       leaf += 24) {
    PageMask f;
    f.set(leaf % 512);
    auto res = Prefetcher::compute_fast(b, f, true, 51);
    b.gpu_resident |= f;
    b.gpu_resident |= res.prefetch;
    ++faults_needed;
  }
  EXPECT_TRUE(b.fully_resident());
  EXPECT_LE(faults_needed, 20u);  // 512 pages from <= 20 faults
}

TEST(Prefetcher, ResidentPagesExcludedFromResult) {
  VaBlock b = make_block();
  b.gpu_resident.set_range(0, 8);
  auto res = Prefetcher::compute_fast(b, mask_of({8}), true, 101);
  // Big page 0 upgrade: pages 0-15, minus resident 0-7 and fault 8.
  EXPECT_EQ(res.prefetch.count(), 7u);
  EXPECT_TRUE(res.prefetch.test(9));
  EXPECT_FALSE(res.prefetch.test(0));
}

TEST(Prefetcher, ResidencyCountsTowardDensity) {
  VaBlock b = make_block();
  b.gpu_resident.set_range(0, 260);  // 50.8 % of the block resident
  // A fault at 300 upgrades big page 18 (288-303, 16 pages): occupancy
  // 260 + 16 = 276/512 = 53.9 % > 51 % -> whole block.
  auto res = Prefetcher::compute_fast(b, mask_of({300}), true, 51);
  EXPECT_EQ(res.prefetch.count(), 512u - 260u - 1u);
}

TEST(Prefetcher, EmptyFaultSetIsEmpty) {
  VaBlock b = make_block();
  auto res = Prefetcher::compute_fast(b, PageMask{}, true, 51);
  EXPECT_TRUE(res.prefetch.none());
}

TEST(Prefetcher, AggressiveThresholdFetchesBlockFromOneFault) {
  VaBlock b = make_block();
  auto res = Prefetcher::compute_fast(b, mask_of({0}), true, 1);
  // Upgrade occupies 16/512 = 3.1 % > 1 % at the root.
  EXPECT_EQ(res.prefetch.count(), 511u);
}

// Parameterized: threshold sweep on a fixed scattered-fault pattern.
class ThresholdSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ThresholdSweep, PrefetchVolumeDecreasesWithThreshold) {
  VaBlock b = make_block();
  PageMask faults;
  for (std::uint32_t i = 0; i < 512; i += 128) faults.set(i);
  auto res = Prefetcher::compute_fast(b, faults, true, GetParam());
  // Store volume for monotonicity check across instantiations via
  // a simple recomputation at the next-lower threshold.
  if (GetParam() > 1) {
    auto more = Prefetcher::compute_fast(b, faults, true, GetParam() - 25);
    EXPECT_GE(more.prefetch.count(), res.prefetch.count());
  }
  // Never prefetches faulted or out-of-range pages.
  EXPECT_TRUE((res.prefetch & faults).none());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(1u, 26u, 51u, 76u, 100u));

TEST(Prefetcher, ComputeFastMatchesReferenceOnRandomInputs) {
  // Differential property test for the driver's word-level
  // implementation: compute_fast must return the exact Result of the
  // tree-building reference (prefetch_reference.h) for every (residency, fault set, block size,
  // threshold, upgrade) combination. Random sweep over the whole input
  // space, including partial blocks where the valid clamp matters.
  Rng rng(2024);
  const std::uint32_t sizes[] = {kPagesPerBlock, 511, 100, 17, 1};
  const std::uint32_t thresholds[] = {1, 25, 51, 75, 100, 101};
  for (int trial = 0; trial < 150; ++trial) {
    VaBlock b = make_block(sizes[trial % 5]);
    PageMask faulted;
    // Residency density varies per trial so both sparse and near-saturated
    // density trees get exercised.
    const std::uint64_t resident_pct = rng.next_below(90);
    for (std::uint32_t p = 0; p < b.num_pages; ++p) {
      if (rng.next_below(100) < resident_pct) b.gpu_resident.set(p);
    }
    for (std::uint32_t p = 0; p < b.num_pages; ++p) {
      // Driver invariant: the prefetcher sees need = faulted minus mapped.
      if (!b.gpu_resident.test(p) && rng.next_below(100) < 20) faulted.set(p);
    }
    for (std::uint32_t th : thresholds) {
      for (bool upgrade : {false, true}) {
        auto ref = reference_prefetch(b, faulted, upgrade, th);
        auto fast = Prefetcher::compute_fast(b, faulted, upgrade, th);
        ASSERT_EQ(ref.prefetch, fast.prefetch)
            << "num_pages=" << b.num_pages << " threshold=" << th
            << " upgrade=" << upgrade << " trial=" << trial;
        ASSERT_EQ(ref.tree_updates, fast.tree_updates)
            << "num_pages=" << b.num_pages << " threshold=" << th
            << " upgrade=" << upgrade << " trial=" << trial;
      }
    }
  }

  // The sparse regime random workloads produce: a bin holds one or two
  // faulted pages, on a block resident (or evicted) by whole 64 KB big
  // pages. Own stream, so the trials above keep theirs.
  Rng sparse(4048);
  const std::uint32_t sparse_thresholds[] = {0, 1, 25, 51, 75, 100, 101};
  for (int trial = 0; trial < 400; ++trial) {
    VaBlock b = make_block(sizes[trial % 5]);
    const std::uint64_t resident_pct = sparse.next_below(101);
    for (std::uint32_t lo = 0; lo < b.num_pages; lo += kPagesPerBigPage) {
      if (sparse.next_below(100) < resident_pct) {
        b.gpu_resident.set_range(lo,
                                 std::min(lo + kPagesPerBigPage, b.num_pages));
      }
    }
    const std::uint32_t holes = b.num_pages - b.gpu_resident.count();
    if (holes == 0) continue;
    PageMask faulted;
    const std::uint32_t want = 1 + static_cast<std::uint32_t>(
                                       sparse.next_below(2));
    while (faulted.count() < std::min(want, holes)) {
      const auto p = static_cast<std::uint32_t>(
          sparse.next_below(b.num_pages));
      if (!b.gpu_resident.test(p)) faulted.set(p);
    }
    for (std::uint32_t th : sparse_thresholds) {
      for (bool upgrade : {false, true}) {
        auto ref = reference_prefetch(b, faulted, upgrade, th);
        auto fast = Prefetcher::compute_fast(b, faulted, upgrade, th);
        ASSERT_EQ(ref.prefetch, fast.prefetch)
            << "sparse num_pages=" << b.num_pages << " threshold=" << th
            << " upgrade=" << upgrade << " trial=" << trial;
        ASSERT_EQ(ref.tree_updates, fast.tree_updates)
            << "sparse num_pages=" << b.num_pages << " threshold=" << th
            << " upgrade=" << upgrade << " trial=" << trial;
      }
    }
  }
}

}  // namespace
}  // namespace uvmsim
