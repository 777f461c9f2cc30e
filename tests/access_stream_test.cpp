#include "gpu/access.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace uvmsim {
namespace {

TEST(AccessStream, AddRunStoresContiguousPages) {
  AccessStream s;
  s.add_run(100, 4, true, 500);
  ASSERT_EQ(s.size(), 1u);
  std::vector<VirtPage> buf;
  auto pages = s.pages(0, buf);
  ASSERT_EQ(pages.size(), 4u);
  EXPECT_EQ(pages[0], 100u);
  EXPECT_EQ(pages[3], 103u);
  EXPECT_TRUE(s.record(0).write);
  EXPECT_EQ(s.record(0).compute_ns, 500u);
}

TEST(AccessStream, AddDedupsPreservingLaneOrder) {
  AccessStream s;
  std::array<VirtPage, 5> pages = {9, 3, 9, 1, 3};
  s.add(pages, false, 0);
  std::vector<VirtPage> buf;
  auto got = s.pages(0, buf);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 9u);  // first-occurrence order, as hardware lanes issue
  EXPECT_EQ(got[1], 3u);
  EXPECT_EQ(got[2], 1u);
}

TEST(AccessStream, MultipleRecordsIndependent) {
  AccessStream s;
  s.add_run(0, 2, false, 10);
  s.add_run(100, 3, true, 20);
  ASSERT_EQ(s.size(), 2u);
  std::vector<VirtPage> buf;
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
  std::vector<VirtPage> buf;
  const auto got = s.pages(0, buf);
  EXPECT_EQ(std::vector<VirtPage>(got.begin(), got.end()),
            (std::vector<VirtPage>{100, 101, 102, 103, 104}));
  EXPECT_EQ(s.record(0).page_count, 5u);
  EXPECT_TRUE(s.record(0).strided);
  EXPECT_THROW(s.add_strided(0, 0, 0, 4096, 1, false, 0),
               std::invalid_argument);
  EXPECT_THROW(s.add_strided(0, 0, 4096, 4096, 65536, false, 0),
               std::invalid_argument);
}

TEST(AccessStream, ClearDropsRecordsOfBothForms) {
  AccessStream s;
  std::array<VirtPage, 2> pages = {7, 3};
  s.add(pages, false, 0);
  s.add_run(50, 2, true, 0);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.total_page_touches(), 0u);
  s.add(pages, false, 0);
  std::vector<VirtPage> buf;
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
