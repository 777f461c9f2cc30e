#include "gpu/block_scheduler.h"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

TEST(BlockScheduler, DispatchesLowestBlocksFirst) {
  BlockScheduler s(2, 2);
  s.begin_grid(0, 10);
  auto d = s.dispatch_available();
  ASSERT_EQ(d.size(), 4u);  // 2 SMs x 2 slots
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(d[i].block_index, i);
  for (const auto& x : d) s.on_block_complete(x.sm);
  auto d2 = s.dispatch_available();
  ASSERT_EQ(d2.size(), 4u);
  EXPECT_EQ(d2.front().block_index, 4u);
  for (const auto& x : d2) s.on_block_complete(x.sm);
  EXPECT_EQ(s.dispatch_available().size(), 2u);  // blocks 8 and 9 remain
}

TEST(BlockScheduler, SpreadsAcrossSms) {
  BlockScheduler s(4, 2);
  s.begin_grid(7, 4);
  auto d = s.dispatch_available();
  ASSERT_EQ(d.size(), 4u);
  // Breadth-first: each SM gets exactly one block.
  std::vector<bool> seen(4, false);
  for (auto& x : d) {
    EXPECT_FALSE(seen[x.sm]);
    seen[x.sm] = true;
    EXPECT_EQ(x.grid, 7u);
  }
}

TEST(BlockScheduler, CompletionFreesSlot) {
  BlockScheduler s(1, 1);
  s.begin_grid(0, 3);
  auto d1 = s.dispatch_available();
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_TRUE(s.dispatch_available().empty());
  s.on_block_complete(0);
  auto d2 = s.dispatch_available();
  ASSERT_EQ(d2.size(), 1u);
  EXPECT_EQ(d2[0].block_index, 1u);
}

TEST(BlockScheduler, AllDispatchedFlag) {
  BlockScheduler s(2, 2);
  s.begin_grid(0, 3);
  EXPECT_THROW(s.end_grid(0), std::logic_error);  // blocks still pending
  auto d = s.dispatch_available();
  ASSERT_EQ(d.size(), 3u);
  s.on_block_complete(d[0].sm);
  EXPECT_TRUE(s.dispatch_available().empty());  // nothing left to dispatch
  EXPECT_NO_THROW(s.end_grid(0));
}

TEST(BlockScheduler, CompleteOnIdleSmThrows) {
  BlockScheduler s(2, 2);
  s.begin_grid(0, 1);
  s.dispatch_available();
  EXPECT_THROW(s.on_block_complete(1), std::logic_error);  // block on SM 0
}

TEST(BlockScheduler, ConcurrentGridsRoundRobin) {
  BlockScheduler s(2, 2);  // 4 slots
  s.begin_grid(0, 10);
  s.begin_grid(1, 10);
  auto d = s.dispatch_available();
  ASSERT_EQ(d.size(), 4u);
  // Alternating grids, each contributing its lowest pending block.
  int from_a = 0, from_b = 0;
  for (auto& x : d) (x.grid == 0 ? from_a : from_b)++;
  EXPECT_EQ(from_a, 2);
  EXPECT_EQ(from_b, 2);
}

TEST(BlockScheduler, DrainedGridYieldsToOther) {
  BlockScheduler s(1, 4);
  s.begin_grid(0, 1);
  s.begin_grid(1, 5);
  auto d = s.dispatch_available();
  ASSERT_EQ(d.size(), 4u);
  int from_b = 0;
  for (auto& x : d) from_b += (x.grid == 1);
  EXPECT_EQ(from_b, 3);  // grid 0 ran out after one block
}

TEST(BlockScheduler, EndGridRemoves) {
  BlockScheduler s(2, 2);
  s.begin_grid(0, 1);
  s.begin_grid(1, 2);
  s.dispatch_available();  // every block of both grids; one slot stays free
  s.end_grid(0);
  EXPECT_THROW(s.end_grid(0), std::logic_error);  // already removed
  s.begin_grid(0, 1);  // the id is free again
  auto d = s.dispatch_available();
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].grid, 0u);
}

TEST(BlockScheduler, EndGridWithPendingBlocksThrows) {
  BlockScheduler s(1, 1);
  s.begin_grid(0, 5);
  s.dispatch_available();  // only 1 dispatched
  EXPECT_THROW(s.end_grid(0), std::logic_error);
}

TEST(BlockScheduler, DuplicateGridIdThrows) {
  BlockScheduler s(1, 1);
  s.begin_grid(0, 1);
  EXPECT_THROW(s.begin_grid(0, 1), std::logic_error);
}

TEST(BlockScheduler, UnknownGridQueriesThrow) {
  BlockScheduler s(1, 1);
  EXPECT_THROW(s.end_grid(9), std::logic_error);
}

TEST(BlockScheduler, LateGridJoinsSharing) {
  BlockScheduler s(2, 2);
  s.begin_grid(0, 100);
  auto d0 = s.dispatch_available();
  ASSERT_EQ(d0.size(), 4u);  // grid 0 fills the machine
  s.begin_grid(1, 100);
  // As slots free, both grids get serviced.
  s.on_block_complete(d0[0].sm);
  s.on_block_complete(d0[1].sm);
  auto d1 = s.dispatch_available();
  ASSERT_EQ(d1.size(), 2u);
  bool saw_grid1 = false;
  for (auto& x : d1) saw_grid1 |= (x.grid == 1);
  EXPECT_TRUE(saw_grid1);
}

}  // namespace
}  // namespace uvmsim
