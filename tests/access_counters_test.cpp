#include "gpu/access_counters.h"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

AccessCounters::Config cfg(std::uint32_t threshold) {
  AccessCounters::Config c;
  c.threshold = threshold;
  c.queue_capacity = 4;
  return c;
}

TEST(AccessCounters, DisabledDoesNothing) {
  AccessCounters ac(cfg(1), /*enabled=*/false);
  for (int i = 0; i < 100; ++i) ac.on_resident_access(0, 0);
  EXPECT_EQ(ac.notifications_raised(), 0u);
  EXPECT_EQ(ac.pending(), 0u);
}

TEST(AccessCounters, NotifiesAtThreshold) {
  AccessCounters ac(cfg(3), true);
  ac.on_resident_access(0, 10);
  ac.on_resident_access(0, 20);
  EXPECT_EQ(ac.pending(), 0u);
  ac.on_resident_access(0, 30);
  EXPECT_EQ(ac.pending(), 1u);
  auto notes = ac.drain(10);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].block, 0u);
  EXPECT_EQ(notes[0].big_page, 0u);
  EXPECT_EQ(notes[0].count, 3u);
  EXPECT_EQ(notes[0].at, 30u);
}

TEST(AccessCounters, CounterClearsAfterNotify) {
  AccessCounters ac(cfg(2), true);
  for (int i = 0; i < 6; ++i) ac.on_resident_access(0, 0);
  EXPECT_EQ(ac.notifications_raised(), 3u);
}

TEST(AccessCounters, RegionsAreBigPageGranular) {
  AccessCounters ac(cfg(2), true);
  // Pages 0 and 15 share big page 0; page 16 is big page 1.
  ac.on_resident_access(0, 0);
  ac.on_resident_access(15, 0);
  EXPECT_EQ(ac.pending(), 1u);
  ac.on_resident_access(16, 0);
  EXPECT_EQ(ac.pending(), 1u);  // big page 1 only counted once
}

TEST(AccessCounters, DistinctBlocksDistinctCounters) {
  AccessCounters ac(cfg(2), true);
  ac.on_resident_access(0, 0);
  ac.on_resident_access(kPagesPerBlock, 0);  // block 1
  EXPECT_EQ(ac.pending(), 0u);
  ac.on_resident_access(kPagesPerBlock, 0);
  auto notes = ac.drain(10);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].block, 1u);
}

TEST(AccessCounters, QueueOverflowDrops) {
  AccessCounters ac(cfg(1), true);  // every access notifies; capacity 4
  for (VirtPage p = 0; p < 6; ++p) {
    ac.on_resident_access(p * kPagesPerBigPage, 0);
  }
  EXPECT_EQ(ac.pending(), 4u);
  EXPECT_EQ(ac.notifications_dropped(), 2u);
}

TEST(AccessCounters, DrainRespectsLimit) {
  AccessCounters ac(cfg(1), true);
  for (VirtPage p = 0; p < 3; ++p) {
    ac.on_resident_access(p * kPagesPerBigPage, 0);
  }
  EXPECT_EQ(ac.drain(2).size(), 2u);
  EXPECT_EQ(ac.pending(), 1u);
}

}  // namespace
}  // namespace uvmsim
