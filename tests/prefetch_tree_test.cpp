#include "uvm/prefetch_tree.h"

#include <gtest/gtest.h>

#include "prefetch_reference.h"

namespace uvmsim {
namespace {

PageMask mask_of(std::initializer_list<std::uint32_t> pages) {
  PageMask m;
  for (auto p : pages) m.set(p);
  return m;
}

PageMask range_mask(std::uint32_t lo, std::uint32_t hi) {
  PageMask m;
  m.set_range(lo, hi);
  return m;
}

TEST(PrefetchTree, CountsBuildBottomUp) {
  PrefetchTree t(range_mask(0, 256), kPagesPerBlock);
  EXPECT_EQ(t.count(0, 0), 256u);                 // root
  EXPECT_EQ(t.count(1, 0), 256u);                 // left half full
  EXPECT_EQ(t.count(1, 1), 0u);                   // right half empty
  EXPECT_EQ(t.count(PrefetchTree::kLevels - 1, 0), 1u);  // leaf
}

TEST(PrefetchTree, ValidCountsClampToPartialBlock) {
  PrefetchTree t(PageMask{}, 100);
  EXPECT_EQ(t.valid(0, 0), 100u);
  EXPECT_EQ(t.valid(1, 0), 100u);  // left 256-subtree holds all 100
  EXPECT_EQ(t.valid(1, 1), 0u);
  EXPECT_EQ(t.valid(PrefetchTree::kLevels - 1, 99), 1u);
  EXPECT_EQ(t.valid(PrefetchTree::kLevels - 1, 100), 0u);
}

TEST(PrefetchTree, InvalidConstructionThrows) {
  EXPECT_THROW(PrefetchTree(PageMask{}, 0), std::invalid_argument);
  EXPECT_THROW(PrefetchTree(PageMask{}, kPagesPerBlock + 1),
               std::invalid_argument);
}

TEST(PrefetchTree, ExpandOutOfRangeThrows) {
  PrefetchTree t(mask_of({0}), 10);
  EXPECT_THROW(t.expand(10, 51), std::invalid_argument);
}

TEST(PrefetchTree, IsolatedFaultExpandsOnlyItself) {
  // One occupied leaf in an empty block: no subtree above the leaf can
  // exceed 51 % density, so the region is the leaf alone.
  PrefetchTree t(mask_of({100}), kPagesPerBlock);
  PageMask region = t.expand(100, 51);
  EXPECT_EQ(region.count(), 1u);
  EXPECT_TRUE(region.test(100));
}

TEST(PrefetchTree, DensePairExpandsSubtree) {
  // Both children of a 2-leaf subtree occupied: 100 % > 51 %, and the
  // 4-leaf subtree is at 50 % which does NOT exceed 51 %.
  PrefetchTree t(mask_of({8, 9}), kPagesPerBlock);
  PageMask region = t.expand(8, 51);
  EXPECT_EQ(region.count(), 2u);
  EXPECT_TRUE(region.test(8));
  EXPECT_TRUE(region.test(9));
}

TEST(PrefetchTree, PicksLargestQualifyingSubtree) {
  // Fill 5 of the first 8 leaves: 62.5 % > 51 % at the 8-leaf level, while
  // the 16-leaf level is at 31 %.
  PrefetchTree t(mask_of({0, 1, 2, 3, 4}), kPagesPerBlock);
  PageMask region = t.expand(0, 51);
  EXPECT_EQ(region.count(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_TRUE(region.test(i));
}

TEST(PrefetchTree, SaturationCascades) {
  // After expanding leaves 0-4 to the 8-leaf subtree, occupancy rises; an
  // additional fault at leaf 8 now sees the 16-leaf subtree at
  // (8 + 1)/16 = 56 % > 51 % and expands to 16 leaves.
  PrefetchTree t(mask_of({0, 1, 2, 3, 4, 8}), kPagesPerBlock);
  PageMask first = t.expand(0, 51);
  EXPECT_EQ(first.count(), 8u);
  PageMask second = t.expand(8, 51);
  EXPECT_EQ(second.count(), 16u);
}

TEST(PrefetchTree, FullBlockFromRoot) {
  // More than 51 % of the whole block occupied: a single fault expands to
  // the entire block.
  PrefetchTree t(range_mask(0, 262), kPagesPerBlock);  // 262/512 = 51.2 %
  PageMask region = t.expand(0, 51);
  EXPECT_EQ(region.count(), 512u);
}

TEST(PrefetchTree, ThresholdIsStrict) {
  // Exactly 51.17 % fails a 52 threshold but passes 51.
  PrefetchTree a(range_mask(0, 262), kPagesPerBlock);
  EXPECT_EQ(a.expand(0, 52).count(), 256u);  // falls back to half (100 %)
  PrefetchTree b(range_mask(0, 262), kPagesPerBlock);
  EXPECT_EQ(b.expand(0, 51).count(), 512u);
}

TEST(PrefetchTree, Threshold100NeverExpandsBeyondLeafUnlessFull) {
  PrefetchTree t(range_mask(0, 511), kPagesPerBlock);
  // 511/512 < 100 % at the root; the 256-leaf left subtree IS 100 % but
  // 100 % is not strictly greater than 100.
  PageMask region = t.expand(0, 100);
  EXPECT_EQ(region.count(), 1u);
}

TEST(PrefetchTree, PartialBlockDensityUsesValidLeaves) {
  // Block with 64 valid pages, 40 occupied (62 %): a fault expands to the
  // full 64 valid pages (the 64-leaf subtree density is 40/64 > 51 %), and
  // never past the valid range.
  PrefetchTree t(range_mask(0, 40), 64);
  PageMask region = t.expand(0, 51);
  EXPECT_EQ(region.count(), 64u);
  for (std::uint32_t i = 64; i < kPagesPerBlock; ++i) {
    EXPECT_FALSE(region.test(i));
  }
}

TEST(PrefetchTree, ComputeReturnsOnlyNewPages) {
  PageMask occupied = range_mask(0, 5);
  PageMask faulted = mask_of({0, 1, 2, 3, 4});
  PageMask out = tree_new_pages(occupied, faulted, kPagesPerBlock, 51);
  // Expands to the 8-leaf subtree; pages 0-4 already occupied.
  EXPECT_EQ(out.count(), 3u);
  EXPECT_TRUE(out.test(5));
  EXPECT_TRUE(out.test(7));
}

TEST(PrefetchTree, ComputeEmptyFaultsIsEmpty) {
  PageMask out =
      tree_new_pages(range_mask(0, 100), PageMask{}, kPagesPerBlock, 51);
  EXPECT_TRUE(out.none());
}

TEST(PrefetchTree, PaperFigure6Scenario) {
  // Fig. 6 uses a 4-level (16-leaf) illustration at 51 %. We reproduce the
  // idea at full scale: a 16-leaf subtree with 9 occupied leaves (56 %)
  // expands from any faulted leaf in it.
  PageMask occ = range_mask(16, 25);  // 9 leaves of big page 1
  PrefetchTree t(occ, kPagesPerBlock);
  PageMask region = t.expand(16, 51);
  EXPECT_EQ(region.count(), 16u);
  for (std::uint32_t i = 16; i < 32; ++i) EXPECT_TRUE(region.test(i));
}

// --- Parameterized sweep: occupancy fraction x threshold ---

struct SweepParam {
  std::uint32_t occupied_leaves;  // of the first 64-leaf subtree
  std::uint32_t threshold;
  std::uint32_t expected_region;  // expand(0) region size
};

class TreeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TreeSweep, RegionMatchesDensityRule) {
  const auto& p = GetParam();
  PrefetchTree t(range_mask(0, p.occupied_leaves), kPagesPerBlock);
  PageMask region = t.expand(0, p.threshold);
  EXPECT_EQ(region.count(), p.expected_region)
      << "occupied=" << p.occupied_leaves << " threshold=" << p.threshold;
}

// Expected values derived from the rule: walking root->leaf, the first
// subtree (sizes 512,256,...,1) whose occupancy strictly exceeds
// threshold% of its size wins. Occupied leaves fill from index 0, so the
// subtree of size S containing leaf 0 holds min(occ, S) occupied leaves.
INSTANTIATE_TEST_SUITE_P(
    DensityRule, TreeSweep,
    ::testing::Values(
        // 32 occupied leaves: 64-subtree at 50 % fails 51; 32-subtree 100 %.
        SweepParam{32, 51, 32},
        // 33: 64-subtree 51.6 % > 51.
        SweepParam{33, 51, 64},
        // 66: 128-subtree 51.6 %.
        SweepParam{66, 51, 128},
        // 131: 256-subtree 51.2 %.
        SweepParam{131, 51, 256},
        // 263: root 51.4 %.
        SweepParam{263, 51, 512},
        // Aggressive 1 %: even 6 leaves tip the root (6/512 = 1.17 %).
        SweepParam{6, 1, 512},
        // 1 % but only 5 leaves: root at 0.98 % fails; 256-subtree at
        // 1.95 % passes.
        SweepParam{5, 1, 256},
        // Conservative 90 %: 32 leaves -> 32-subtree at 100 %.
        SweepParam{32, 90, 32},
        // 90 % with 58/64: 90.6 % > 90.
        SweepParam{58, 90, 64}));

}  // namespace
}  // namespace uvmsim
