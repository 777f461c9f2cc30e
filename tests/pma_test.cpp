#include "mem/pma.h"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

PhysicalMemoryAllocator::Config small_cfg() {
  PhysicalMemoryAllocator::Config c;
  c.capacity_bytes = 16ull << 21;  // 16 chunks of 2 MiB
  c.chunk_bytes = 2ull << 20;
  c.slab_chunks = 4;
  return c;
}

TEST(Pma, FirstAllocGoesToRm) {
  PhysicalMemoryAllocator pma(small_cfg());
  auto res = pma.alloc_chunk();
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.rm_calls, 1u);
  EXPECT_EQ(pma.rm_calls(), 1u);
  EXPECT_EQ(pma.chunks_in_use(), 1u);
  EXPECT_EQ(pma.cached_chunks(), 3u);  // slab of 4, 1 used
}

TEST(Pma, SubsequentAllocsHitCache) {
  PhysicalMemoryAllocator pma(small_cfg());
  pma.alloc_chunk();
  for (int i = 0; i < 3; ++i) {
    auto res = pma.alloc_chunk();
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.rm_calls, 0u);
  }
  EXPECT_EQ(pma.rm_calls(), 1u);
  // Cache drained: next alloc calls RM again.
  EXPECT_EQ(pma.alloc_chunk().rm_calls, 1u);
  EXPECT_EQ(pma.rm_calls(), 2u);
}

TEST(Pma, SlabClampedToRemainingCapacity) {
  auto cfg = small_cfg();
  cfg.slab_chunks = 100;  // bigger than total capacity
  PhysicalMemoryAllocator pma(cfg);
  auto res = pma.alloc_chunk();
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(pma.cached_chunks(), 15u);  // 16 total - 1 in use
}

TEST(Pma, ExhaustionReturnsNotOk) {
  PhysicalMemoryAllocator pma(small_cfg());
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(pma.alloc_chunk().ok);
  EXPECT_TRUE(pma.exhausted());
  auto res = pma.alloc_chunk();
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(pma.chunks_in_use(), 16u);
}

TEST(Pma, FreeEnablesRealloc) {
  PhysicalMemoryAllocator pma(small_cfg());
  for (int i = 0; i < 16; ++i) pma.alloc_chunk();
  pma.free_chunk();
  EXPECT_FALSE(pma.exhausted());
  auto res = pma.alloc_chunk();
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.rm_calls, 0u);  // came from the freed cache
}

TEST(Pma, FreeWithoutAllocThrows) {
  PhysicalMemoryAllocator pma(small_cfg());
  EXPECT_THROW(pma.free_chunk(), std::logic_error);
}

TEST(Pma, AllocCountTracksServedAllocations) {
  PhysicalMemoryAllocator pma(small_cfg());
  for (int i = 0; i < 10; ++i) pma.alloc_chunk();
  EXPECT_EQ(pma.allocs(), 10u);
}

TEST(Pma, TotalChunksDerivedFromCapacity) {
  PhysicalMemoryAllocator pma(small_cfg());
  EXPECT_EQ(pma.total_chunks(), 16u);
}

}  // namespace
}  // namespace uvmsim
