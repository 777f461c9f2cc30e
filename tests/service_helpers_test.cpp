#include "uvm/service.h"

#include <gtest/gtest.h>

#include <span>

namespace uvmsim {
namespace {

TEST(ServiceHelpers, RunsToBytes) {
  PageMask m;
  m.set(0);
  m.set_range(10, 26);
  m.set_range(100, 512);
  auto bytes = runs_to_bytes(m);
  ASSERT_EQ(bytes.size(), 3u);
  EXPECT_EQ(bytes[0], kPageSize);
  EXPECT_EQ(bytes[1], 16 * kPageSize);
  EXPECT_EQ(bytes[2], 412 * kPageSize);
}

TEST(ServiceHelpers, RunsToBytesEmpty) {
  EXPECT_TRUE(runs_to_bytes(PageMask{}).empty());
}

TEST(ServiceHelpers, RunsToBytesAlternatingMaskFillsTheInlineList) {
  // The worst case the inline capacity is sized for: every other page.
  PageMask m;
  for (std::uint32_t i = 0; i < kPagesPerBlock; i += 2) m.set(i);
  const RunBytes bytes = runs_to_bytes(m);
  ASSERT_EQ(bytes.size(), RunBytes::kMaxRuns);
  EXPECT_EQ(RunBytes::kMaxRuns, 256u);
  for (std::uint32_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(bytes[i], kPageSize) << "run " << i;
  }
  const std::span<const std::uint64_t> s = bytes;
  EXPECT_EQ(s.size(), 256u);
}

TEST(ServiceHelpers, RunsToBytesFullMaskIsOneRun) {
  PageMask m;
  m.set_all();
  const RunBytes bytes = runs_to_bytes(m);
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], std::uint64_t{kPagesPerBlock} * kPageSize);
}

TEST(ServiceHelpers, RunsToBytesRunCrossingWordBoundaries) {
  // [60, 200) spans words 0-3; [255, 257) straddles the 256 boundary;
  // [511, 512) is the last page on its own.
  PageMask m;
  m.set_range(60, 200);
  m.set_range(255, 257);
  m.set(511);
  const RunBytes bytes = runs_to_bytes(m);
  ASSERT_EQ(bytes.size(), 3u);
  EXPECT_EQ(bytes[0], 140 * kPageSize);
  EXPECT_EQ(bytes[1], 2 * kPageSize);
  EXPECT_EQ(bytes[2], kPageSize);
}

}  // namespace
}  // namespace uvmsim
