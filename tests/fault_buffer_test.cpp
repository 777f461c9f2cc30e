#include "gpu/fault_buffer.h"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

FaultBuffer::Config small_cfg() {
  FaultBuffer::Config c;
  c.capacity = 4;
  c.ready_lag = 300;
  return c;
}

FaultEntry entry(VirtPage p) {
  FaultEntry e;
  e.page = p;
  e.block = block_of_page(p);
  return e;
}

TEST(FaultBuffer, PushPopFifo) {
  FaultBuffer fb(small_cfg());
  EXPECT_TRUE(fb.push(entry(1), 100));
  EXPECT_TRUE(fb.push(entry(2), 200));
  auto a = fb.pop();
  auto b = fb.pop();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->page, 1u);
  EXPECT_EQ(b->page, 2u);
  EXPECT_FALSE(fb.pop().has_value());
}

TEST(FaultBuffer, FifoAcrossWrapAndGrowth) {
  // Interleaved pushes and pops wrap the ring's head before it grows, so
  // growth must unroll the live entries oldest first.
  FaultBuffer::Config c;
  c.capacity = 100;
  FaultBuffer fb(c);
  VirtPage pushed = 0;
  VirtPage popped = 0;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 9; ++i) ASSERT_TRUE(fb.push(entry(pushed++), 0));
    for (int i = 0; i < 5; ++i) {
      auto e = fb.pop();
      ASSERT_TRUE(e);
      EXPECT_EQ(e->page, popped++);
    }
    ASSERT_EQ(fb.size(), pushed - popped);
    EXPECT_EQ(fb.peek()->page, popped);
  }
  while (auto e = fb.pop()) EXPECT_EQ(e->page, popped++);
  EXPECT_EQ(popped, pushed);
  EXPECT_EQ(fb.max_occupancy(), 11u * 4 + 9);  // peak: before the last pops
}

TEST(FaultBuffer, TimestampsStamped) {
  FaultBuffer fb(small_cfg());
  fb.push(entry(1), 1000);
  auto e = fb.pop();
  EXPECT_EQ(e->raised_at, 1000u);
  EXPECT_EQ(e->ready_at, 1300u);
}

TEST(FaultBuffer, CapacityDrops) {
  FaultBuffer fb(small_cfg());
  for (VirtPage p = 0; p < 4; ++p) EXPECT_TRUE(fb.push(entry(p), 0));
  EXPECT_TRUE(fb.full());
  EXPECT_FALSE(fb.push(entry(99), 0));
  EXPECT_EQ(fb.total_dropped(), 1u);
  EXPECT_EQ(fb.size(), 4u);
}

TEST(FaultBuffer, FlushDiscardsAll) {
  FaultBuffer fb(small_cfg());
  for (VirtPage p = 0; p < 3; ++p) fb.push(entry(p), 0);
  EXPECT_EQ(fb.flush(), 3u);
  EXPECT_TRUE(fb.empty());
  EXPECT_EQ(fb.total_flushed(), 3u);
}

TEST(FaultBuffer, PeekDoesNotRemove) {
  FaultBuffer fb(small_cfg());
  fb.push(entry(7), 0);
  ASSERT_NE(fb.peek(), nullptr);
  EXPECT_EQ(fb.peek()->page, 7u);
  EXPECT_EQ(fb.size(), 1u);
}

TEST(FaultBuffer, PeekEmptyIsNull) {
  FaultBuffer fb(small_cfg());
  EXPECT_EQ(fb.peek(), nullptr);
}

TEST(FaultBuffer, StatsAccumulate) {
  FaultBuffer fb(small_cfg());
  for (VirtPage p = 0; p < 6; ++p) fb.push(entry(p), 0);  // 2 dropped
  EXPECT_EQ(fb.total_pushed(), 4u);
  EXPECT_EQ(fb.total_dropped(), 2u);
  EXPECT_EQ(fb.max_occupancy(), 4u);
  fb.pop();
  fb.push(entry(10), 0);
  EXPECT_EQ(fb.total_pushed(), 5u);
}

TEST(FaultBuffer, PushAfterFlushWorks) {
  FaultBuffer fb(small_cfg());
  for (VirtPage p = 0; p < 4; ++p) fb.push(entry(p), 0);
  fb.flush();
  EXPECT_TRUE(fb.push(entry(5), 0));
  EXPECT_EQ(fb.size(), 1u);
}

}  // namespace
}  // namespace uvmsim
