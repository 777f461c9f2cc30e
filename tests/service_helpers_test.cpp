#include "uvm/service.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace uvmsim
