#include "gpu/access.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/rng.h"

namespace uvmsim {
namespace {

TEST(AccessStream, AddRunStoresContiguousPages) {
  AccessStream s;
  s.add_run(100, 4, true, 500);
  ASSERT_EQ(s.size(), 1u);
  std::vector<LanePage> buf;
  auto pages = s.pages(0, buf);
  ASSERT_EQ(pages.size(), 4u);
  EXPECT_EQ(pages[0], 100u);
  EXPECT_EQ(pages[3], 103u);
  EXPECT_TRUE(s.record(0).write);
  EXPECT_EQ(s.record(0).compute_ns, 500u);
}

TEST(AccessStream, AddDedupsPreservingLaneOrder) {
  AccessStream s;
  std::array<LanePage, 5> pages = {9, 3, 9, 1, 3};
  s.add(pages, false, 0);
  std::vector<LanePage> buf;
  auto got = s.pages(0, buf);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 9u);  // first-occurrence order, as hardware lanes issue
  EXPECT_EQ(got[1], 3u);
  EXPECT_EQ(got[2], 1u);
}

/// The quadratic dedupe add() used to run: each lane is kept unless an
/// earlier kept lane of the record equals it.
std::vector<LanePage> reference_dedupe(const std::vector<LanePage>& lanes) {
  std::vector<LanePage> kept;
  for (LanePage p : lanes) {
    bool seen = false;
    for (LanePage q : kept) {
      if (q == p) {
        seen = true;
        break;
      }
    }
    if (!seen) kept.push_back(p);
  }
  return kept;
}

TEST(AccessStream, AddMatchesQuadraticDedupeOnRandomRecords) {
  // Records of 1..200 lanes, half of them at most 16, so tables of every
  // size from 16 to 4096 slots. Pages come from a small pool (many
  // repeats) or a wide one (few), near zero or near the top of the 32-bit
  // lane space.
  Rng rng(0xDEDE);
  AccessStream s;
  std::vector<std::vector<LanePage>> want;
  std::vector<LanePage> lanes;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t n =
        1 + rng.next_below(rng.next_below(2) == 0 ? 16 : 200);
    const std::uint64_t pool = rng.next_below(2) == 0 ? n / 2 + 1 : 1u << 20;
    const LanePage base =
        rng.next_below(2) == 0 ? 0 : static_cast<LanePage>(~0u - pool);
    lanes.clear();
    for (std::uint64_t j = 0; j < n; ++j) {
      lanes.push_back(base + static_cast<LanePage>(rng.next_below(pool)));
    }
    s.add(lanes, i % 3 == 0, static_cast<std::uint32_t>(i));
    want.push_back(reference_dedupe(lanes));
  }
  ASSERT_EQ(s.size(), want.size());
  std::vector<LanePage> buf;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto got = s.pages(i, buf);
    EXPECT_EQ(s.record(i).page_count, want[i].size()) << "record " << i;
    EXPECT_EQ(std::vector<LanePage>(got.begin(), got.end()), want[i])
        << "record " << i;
    EXPECT_EQ(s.record(i).write, i % 3 == 0);
    EXPECT_EQ(s.record(i).compute_ns, i);
  }
}

TEST(AccessStream, AddRejectsMoreThan65535DistinctPages) {
  // page_count is 16 bits: 70,000 distinct pages once wrapped to 4464.
  AccessStream s;
  s.add_run(5, 2, false, 0);
  std::vector<LanePage> lanes(70000);
  std::iota(lanes.begin(), lanes.end(), LanePage{100});
  EXPECT_THROW(s.add(lanes, false, 0), std::invalid_argument);
  // The stream is as it was.
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.total_page_touches(), 2u);
  // Repeats do not count: 65,535 distinct pages among 70,000 lanes fit.
  lanes.resize(65535);
  for (LanePage p = 0; p < 4465; ++p) lanes.push_back(100 + p);
  s.add(lanes, true, 0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.record(1).page_count, 65535u);
  std::vector<LanePage> buf;
  EXPECT_EQ(s.pages(1, buf).back(), 100u + 65534u);
}

TEST(AccessStream, MultipleRecordsIndependent) {
  AccessStream s;
  s.add_run(0, 2, false, 10);
  s.add_run(100, 3, true, 20);
  ASSERT_EQ(s.size(), 2u);
  std::vector<LanePage> buf;
  EXPECT_EQ(s.pages(0, buf).size(), 2u);
  EXPECT_EQ(s.pages(1, buf).size(), 3u);
  EXPECT_EQ(s.pages(1, buf)[0], 100u);
  EXPECT_EQ(s.total_page_touches(), 5u);
}

TEST(AccessStream, StridedRowsSkipPagesAlreadyTouched) {
  AccessStream s;
  // Rows of 6000 bytes every 5000 bytes from byte 3000: pages {0,1,2},
  // {1,2,3}, {3,4} -> lanes 0..4, each once, in ascending order.
  s.add_strided(100, 3000, 6000, 5000, 3, false, 0);
  std::vector<LanePage> buf;
  const auto got = s.pages(0, buf);
  EXPECT_EQ(std::vector<LanePage>(got.begin(), got.end()),
            (std::vector<LanePage>{100, 101, 102, 103, 104}));
  EXPECT_EQ(s.record(0).page_count, 5u);
  EXPECT_TRUE(s.record(0).strided);
  EXPECT_THROW(s.add_strided(0, 0, 0, 4096, 1, false, 0),
               std::invalid_argument);
  EXPECT_THROW(s.add_strided(0, 0, 4096, 4096, 65536, false, 0),
               std::invalid_argument);
}

TEST(AccessStream, StridedPageCountMatchesRowWalkOnRandomShapes) {
  // add_strided counts one-page rows in closed form (page_count = rows)
  // and walks every other shape. Both must equal the distinct pages of the
  // concatenated rows, in order, computed here by brute force; the shapes
  // straddle the one-page-row predicate.
  Rng rng(2024);
  int one_page = 0;
  int walked = 0;
  std::vector<LanePage> buf;
  for (int t = 0; t < 4000; ++t) {
    const bool pow2 = rng.next_below(2) == 0;
    const auto seg = static_cast<std::uint32_t>(
        pow2 ? std::uint64_t{1} << rng.next_below(14)  // up to 2 pages
             : 1 + rng.next_below(3 * kPageSize));
    std::uint64_t offset = rng.next_below(8 * kPageSize);
    std::uint64_t stride = rng.next_below(6 * kPageSize);
    if (rng.next_below(2) == 0) {  // align both to the segment
      offset -= offset % seg;
      stride -= stride % seg;
    }
    const auto rows = static_cast<std::uint32_t>(1 + rng.next_below(40));
    const StridedAccess sa{1000, offset, stride, seg, rows};
    (sa.one_page_rows() ? one_page : walked) += 1;

    std::vector<LanePage> want;
    for (std::uint64_t r = 0; r < rows; ++r) {
      const std::uint64_t lo = offset + r * stride;
      for (std::uint64_t p = lo / kPageSize; p <= (lo + seg - 1) / kPageSize;
           ++p) {
        const auto lane = static_cast<LanePage>(1000 + p);
        if (std::find(want.begin(), want.end(), lane) == want.end()) {
          want.push_back(lane);
        }
      }
    }
    AccessStream s;
    s.add_strided(1000, offset, seg, stride, rows, false, 0);
    ASSERT_EQ(s.record(0).page_count, want.size())
        << "seg " << seg << " offset " << offset << " stride " << stride
        << " rows " << rows;
    const auto got = s.pages(0, buf);
    EXPECT_EQ(std::vector<LanePage>(got.begin(), got.end()), want);
  }
  EXPECT_GT(one_page, 200);
  EXPECT_GT(walked, 200);
}

TEST(AccessStream, ClearDropsRecordsOfBothForms) {
  AccessStream s;
  std::array<LanePage, 2> pages = {7, 3};
  s.add(pages, false, 0);
  s.add_run(50, 2, true, 0);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.total_page_touches(), 0u);
  s.add(pages, false, 0);
  std::vector<LanePage> buf;
  EXPECT_EQ(s.pages(0, buf)[0], 7u);
}

TEST(AccessStream, EmptyAccessThrows) {
  AccessStream s;
  EXPECT_THROW(s.add({}, false, 0), std::invalid_argument);
  EXPECT_THROW(s.add_run(0, 0, false, 0), std::invalid_argument);
}

TEST(KernelSpec, TotalWarps) {
  KernelSpec k;
  k.blocks.resize(3);
  k.blocks[0].warps.resize(2);
  k.blocks[1].warps.resize(4);
  EXPECT_EQ(k.total_warps(), 6u);
}

}  // namespace
}  // namespace uvmsim
