#include "mem/page_mask.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.h"

namespace uvmsim {
namespace {

// Naive per-bit references the word-level implementations are checked
// against.
std::uint32_t ref_count_range(const PageMask& m, std::uint32_t lo,
                              std::uint32_t hi) {
  std::uint32_t n = 0;
  for (std::uint32_t i = lo; i < hi; ++i) n += m.test(i) ? 1u : 0u;
  return n;
}

std::vector<PageMask::Run> ref_runs(const PageMask& m) {
  std::vector<PageMask::Run> out;
  std::uint32_t i = 0;
  while (i < kPagesPerBlock) {
    if (!m.test(i)) {
      ++i;
      continue;
    }
    std::uint32_t start = i;
    while (i < kPagesPerBlock && m.test(i)) ++i;
    out.push_back({start, i - start});
  }
  return out;
}

std::vector<std::uint32_t> ref_indices(const PageMask& m) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < kPagesPerBlock; ++i) {
    if (m.test(i)) out.push_back(i);
  }
  return out;
}

// The mask's runs and set-bit indices as vectors, through the mask's
// allocation-free walkers (for_each_run, set_bits).
std::vector<PageMask::Run> runs_of(const PageMask& m) {
  std::vector<PageMask::Run> out;
  m.for_each_run([&out](PageMask::Run r) { out.push_back(r); });
  return out;
}

std::vector<std::uint32_t> indices_of(const PageMask& m) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i : m.set_bits()) out.push_back(i);
  return out;
}

PageMask random_mask(Rng& rng, std::uint32_t density_pct) {
  PageMask m;
  for (std::uint32_t i = 0; i < kPagesPerBlock; ++i) {
    if (rng.next_below(100) < density_pct) m.set(i);
  }
  return m;
}

TEST(PageMask, StartsEmpty) {
  PageMask m;
  EXPECT_TRUE(m.none());
  EXPECT_EQ(m.count(), 0u);
  EXPECT_TRUE(runs_of(m).empty());
}

TEST(PageMask, SetAndTest) {
  PageMask m;
  m.set(0);
  m.set(511);
  EXPECT_TRUE(m.test(0));
  EXPECT_TRUE(m.test(511));
  EXPECT_FALSE(m.test(1));
  EXPECT_EQ(m.count(), 2u);
}

TEST(PageMask, SetRange) {
  PageMask m;
  m.set_range(10, 20);
  EXPECT_EQ(m.count(), 10u);
  EXPECT_FALSE(m.test(9));
  EXPECT_TRUE(m.test(10));
  EXPECT_TRUE(m.test(19));
  EXPECT_FALSE(m.test(20));
}

TEST(PageMask, CountRange) {
  PageMask m;
  m.set_range(0, 100);
  EXPECT_EQ(m.count_range(0, 50), 50u);
  EXPECT_EQ(m.count_range(50, 150), 50u);
  EXPECT_EQ(m.count_range(100, 512), 0u);
  EXPECT_EQ(m.count_range(30, 30), 0u);
}

TEST(PageMask, RunsDecomposition) {
  PageMask m;
  m.set_range(0, 3);
  m.set(10);
  m.set_range(500, 512);
  auto runs = runs_of(m);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (PageMask::Run{0, 3}));
  EXPECT_EQ(runs[1], (PageMask::Run{10, 1}));
  EXPECT_EQ(runs[2], (PageMask::Run{500, 12}));
}

TEST(PageMask, FullMaskSingleRun) {
  PageMask m;
  m.set_all();
  auto runs = runs_of(m);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (PageMask::Run{0, 512}));
}

TEST(PageMask, AlternatingRuns) {
  PageMask m;
  for (std::uint32_t i = 0; i < 512; i += 2) m.set(i);
  EXPECT_EQ(runs_of(m).size(), 256u);
}

TEST(PageMask, SetIndices) {
  PageMask m;
  m.set(5);
  m.set(300);
  auto idx = indices_of(m);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 5u);
  EXPECT_EQ(idx[1], 300u);
}

TEST(PageMask, BitwiseOperators) {
  PageMask a, b;
  a.set_range(0, 10);
  b.set_range(5, 15);
  EXPECT_EQ((a | b).count(), 15u);
  EXPECT_EQ((a & b).count(), 5u);
  EXPECT_EQ(a.and_not(b).count(), 5u);
  EXPECT_EQ((~a).count(), 502u);
}

TEST(PageMask, CompoundAssignment) {
  PageMask a, b;
  a.set(1);
  b.set(2);
  a |= b;
  EXPECT_EQ(a.count(), 2u);
  a &= b;
  EXPECT_EQ(a.count(), 1u);
  EXPECT_TRUE(a.test(2));
}

TEST(PageMask, Equality) {
  PageMask a, b;
  a.set(7);
  b.set(7);
  EXPECT_EQ(a, b);
  b.set(8);
  EXPECT_FALSE(a == b);
}

TEST(PageMask, RangesAcrossWordBoundaries) {
  // Edges around word 0/1 (bit 64) and the final word (bits 448..511).
  PageMask m;
  m.set_range(60, 70);  // crosses the word 0 -> word 1 boundary
  EXPECT_EQ(m.count(), 10u);
  EXPECT_TRUE(m.test(63));
  EXPECT_TRUE(m.test(64));
  EXPECT_FALSE(m.test(70));
  EXPECT_EQ(m.count_range(0, 64), 4u);
  EXPECT_EQ(m.count_range(64, 128), 6u);
  EXPECT_EQ(m.count_range(63, 65), 2u);

  PageMask tail;
  tail.set_range(440, 512);  // crosses into the last word, ends at 511/512
  EXPECT_EQ(tail.count(), 72u);
  EXPECT_TRUE(tail.test(511));
  EXPECT_EQ(tail.count_range(448, 512), 64u);
  EXPECT_EQ(tail.count_range(511, 512), 1u);
  auto runs = runs_of(tail);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (PageMask::Run{440, 72}));
}

TEST(PageMask, EmptyRangesAreNoOps) {
  PageMask m;
  m.set_range(7, 7);
  m.set_range(64, 64);
  m.set_range(512, 512);
  EXPECT_TRUE(m.none());
  m.set_range(0, 512);
  EXPECT_EQ(m.count_range(100, 100), 0u);
  EXPECT_EQ(m.count_range(512, 512), 0u);
}

TEST(PageMask, FullBlockRange) {
  PageMask m;
  m.set_range(0, kPagesPerBlock);
  EXPECT_EQ(m.count(), kPagesPerBlock);
  EXPECT_EQ(m.count_range(0, kPagesPerBlock), kPagesPerBlock);
  ASSERT_EQ(runs_of(m).size(), 1u);
  EXPECT_EQ(runs_of(m)[0], (PageMask::Run{0, kPagesPerBlock}));
}

TEST(PageMask, FindNextSetAndClear) {
  PageMask m;
  m.set(0);
  m.set(63);
  m.set(64);
  m.set(200);
  m.set(511);
  EXPECT_EQ(m.find_next_set(0), 0u);
  EXPECT_EQ(m.find_next_set(1), 63u);
  EXPECT_EQ(m.find_next_set(64), 64u);
  EXPECT_EQ(m.find_next_set(65), 200u);
  EXPECT_EQ(m.find_next_set(201), 511u);
  EXPECT_EQ(m.find_next_set(512), kPagesPerBlock);
  PageMask full;
  full.set_all();
  EXPECT_EQ(full.find_next_set(511), 511u);
}

TEST(PageMask, SetBitsIteratorMatchesSetIndices) {
  Rng rng(101);
  for (std::uint32_t density : {0u, 1u, 10u, 50u, 95u, 100u}) {
    PageMask m = random_mask(rng, density);
    EXPECT_EQ(indices_of(m), ref_indices(m));
  }
}

TEST(PageMask, RandomMasksMatchNaiveReference) {
  Rng rng(202);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t density = static_cast<std::uint32_t>(
        rng.next_below(101));
    PageMask m = random_mask(rng, density);

    EXPECT_EQ(m.count(), ref_count_range(m, 0, kPagesPerBlock));
    EXPECT_EQ(runs_of(m), ref_runs(m));

    // Random sub-ranges, biased to word boundaries.
    for (int k = 0; k < 8; ++k) {
      std::uint32_t lo = static_cast<std::uint32_t>(rng.next_below(513));
      std::uint32_t hi = static_cast<std::uint32_t>(rng.next_below(513));
      if (rng.next_below(2) == 0) lo = (lo / 64) * 64;
      if (lo > hi) std::swap(lo, hi);
      EXPECT_EQ(m.count_range(lo, hi), ref_count_range(m, lo, hi))
          << "lo=" << lo << " hi=" << hi;

      PageMask s;
      s.set_range(lo, hi);
      EXPECT_EQ(s.count(), hi - lo);
      EXPECT_EQ(s.count_range(lo, hi), hi - lo);
      if (lo > 0) {
        EXPECT_FALSE(s.test(lo - 1));
      }
      if (hi < kPagesPerBlock) {
        EXPECT_FALSE(s.test(hi));
      }
    }
  }
}

TEST(PageMask, ForEachRunMatchesRunsVector) {
  Rng rng(303);
  for (int trial = 0; trial < 100; ++trial) {
    PageMask m = random_mask(
        rng, static_cast<std::uint32_t>(rng.next_below(101)));
    std::vector<PageMask::Run> collected;
    m.for_each_run([&collected](PageMask::Run r) { collected.push_back(r); });
    EXPECT_EQ(collected, ref_runs(m));
  }
}

TEST(PageMask, ClearAndReset) {
  PageMask m;
  m.set_range(0, 512);
  m.reset(100);
  EXPECT_EQ(m.count(), 511u);
  m.clear();
  EXPECT_TRUE(m.none());
}

}  // namespace
}  // namespace uvmsim
