#include "mem/address_space.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/errors.h"

namespace uvmsim {
namespace {

TEST(AddressSpace, SingleRangeBasics) {
  AddressSpace as;
  RangeId id = as.create_range(4 * kVaBlockSize, "a");
  const VaRange& r = as.range(id);
  EXPECT_EQ(r.num_pages, 4u * kPagesPerBlock);
  EXPECT_EQ(r.num_blocks, 4u);
  EXPECT_EQ(r.first_block, 0u);
  EXPECT_EQ(as.num_blocks(), 4u);
  EXPECT_EQ(as.total_pages(), 4u * kPagesPerBlock);
}

TEST(AddressSpace, ZeroBytesThrows) {
  AddressSpace as;
  EXPECT_THROW(as.create_range(0, "z"), std::invalid_argument);
}

TEST(AddressSpace, RejectsVaPastBlockIdBound) {
  // The eviction policies link blocks by 32-bit index with ~0u as the nil
  // link, so block IDs must stay below 2^32 - 1 — proven here at
  // configuration time, before any simulated servicing.
  AddressSpace as;
  EXPECT_THROW(as.create_range(((std::uint64_t{1} << 32) + 1) * kVaBlockSize,
                               "8eb"),
               ConfigError);
  // Exactly 2^32 blocks: the last ID, ~0u, would alias the nil link.
  EXPECT_THROW(as.create_range((std::uint64_t{1} << 32) * kVaBlockSize, "nil"),
               ConfigError);
  // The bound is cumulative across ranges, not per range.
  as.create_range(4 * kVaBlockSize, "a");
  EXPECT_THROW(
      as.create_range((std::uint64_t{1} << 32) * kVaBlockSize - 1, "b"),
      ConfigError);
}

TEST(AddressSpace, RejectsVaAtLanePageBound) {
  // Lanes are 32-bit page numbers, so managed VA must end below 2^32 pages
  // (16 TiB); the check runs before a single VaBlock is built.
  AddressSpace as;
  const std::uint64_t limit_bytes = kVaPageLimit * kPageSize;
  try {
    as.create_range(limit_bytes, "16tib");
    ADD_FAILURE() << "16 TiB range accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(limit_bytes)),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(as.num_ranges(), 0u);
  EXPECT_EQ(as.num_blocks(), 0u);
  // Bytes near 2^64 must not wrap the page count into a small range.
  EXPECT_THROW(as.create_range(~std::uint64_t{0}, "max"), ConfigError);
  // Cumulative: the first range's blocks count toward the bound.
  as.create_range(kVaBlockSize, "a");
  EXPECT_THROW(as.create_range(limit_bytes - kVaBlockSize, "b"), ConfigError);
  EXPECT_EQ(as.num_ranges(), 1u);
}

TEST(AddressSpace, SubPageRoundsUp) {
  AddressSpace as;
  RangeId id = as.create_range(1, "tiny");
  EXPECT_EQ(as.range(id).num_pages, 1u);
  EXPECT_EQ(as.range(id).num_blocks, 1u);
}

TEST(AddressSpace, PartialBlockPageCount) {
  AddressSpace as;
  // 2.5 blocks worth of pages.
  std::uint64_t bytes = 2 * kVaBlockSize + kVaBlockSize / 2;
  RangeId id = as.create_range(bytes, "p");
  const VaRange& r = as.range(id);
  EXPECT_EQ(r.num_blocks, 3u);
  EXPECT_EQ(as.block(2).num_pages, kPagesPerBlock / 2);
  EXPECT_EQ(as.block(0).num_pages, kPagesPerBlock);
}

TEST(AddressSpace, RangesAreBlockAligned) {
  AddressSpace as;
  as.create_range(kPageSize, "a");          // 1 page, pads to 1 block
  RangeId b = as.create_range(kVaBlockSize, "b");
  EXPECT_EQ(as.range(b).first_block, 1u);
  EXPECT_EQ(as.range(b).first_page % kPagesPerBlock, 0u);
}

TEST(AddressSpace, RangeOfResolvesPages) {
  AddressSpace as;
  RangeId a = as.create_range(kVaBlockSize, "a");
  RangeId b = as.create_range(kVaBlockSize, "b");
  EXPECT_EQ(as.range_of(as.range(a).first_page), a);
  EXPECT_EQ(as.range_of(as.range(b).first_page), b);
  EXPECT_EQ(as.range_of(as.range(b).first_page + kPagesPerBlock - 1), b);
}

TEST(AddressSpace, RangeOfPastEndIsInvalid) {
  AddressSpace as;
  as.create_range(kPageSize, "tiny");  // block 0, 1 valid page
  EXPECT_EQ(as.range_of(1), kInvalidRange);        // in padding of block 0
  EXPECT_EQ(as.range_of(10 * kPagesPerBlock), kInvalidRange);
}

TEST(AddressSpace, HostPopulatedSetsCpuResidency) {
  AddressSpace as;
  as.create_range(kVaBlockSize, "a", /*host_populated=*/true);
  EXPECT_EQ(as.block(0).cpu_resident.count(), kPagesPerBlock);
  EXPECT_EQ(as.block(0).ever_populated.count(), kPagesPerBlock);
}

TEST(AddressSpace, UnpopulatedStartsEmpty) {
  AddressSpace as;
  as.create_range(kVaBlockSize, "a", /*host_populated=*/false);
  EXPECT_TRUE(as.block(0).cpu_resident.none());
  EXPECT_TRUE(as.block(0).ever_populated.none());
}

TEST(AddressSpace, GpuResidentPagesSums) {
  AddressSpace as;
  as.create_range(2 * kVaBlockSize, "a");
  as.block(0).gpu_resident.set_range(0, 10);
  as.block(1).gpu_resident.set_range(0, 5);
  EXPECT_EQ(as.gpu_resident_pages(), 15u);
}

TEST(AddressSpace, BlockOfPage) {
  AddressSpace as;
  as.create_range(3 * kVaBlockSize, "a");
  EXPECT_EQ(as.block_of(0).id, 0u);
  EXPECT_EQ(as.block_of(kPagesPerBlock).id, 1u);
  EXPECT_EQ(as.block_of(2 * kPagesPerBlock + 17).id, 2u);
}

TEST(AddressSpace, BlockHelpers) {
  EXPECT_EQ(block_of_page(0), 0u);
  EXPECT_EQ(block_of_page(511), 0u);
  EXPECT_EQ(block_of_page(512), 1u);
  EXPECT_EQ(page_in_block(513), 1u);
  EXPECT_EQ(first_page_of_block(2), 1024u);
  EXPECT_EQ(big_page_of(0), 0u);
  EXPECT_EQ(big_page_of(15), 0u);
  EXPECT_EQ(big_page_of(16), 1u);
  EXPECT_EQ(big_page_of(511), 31u);
}

TEST(AddressSpace, FullyResident) {
  AddressSpace as;
  as.create_range(kPageSize * 10, "a");  // partial block, 10 pages
  VaBlock& b = as.block(0);
  EXPECT_FALSE(b.fully_resident());
  b.gpu_resident.set_range(0, 10);
  EXPECT_TRUE(b.fully_resident());
}

TEST(AddressSpace, TotalBytesAccumulates) {
  AddressSpace as;
  as.create_range(1000, "a");
  as.create_range(2000, "b");
  EXPECT_EQ(as.total_bytes(), 3000u);
}

}  // namespace
}  // namespace uvmsim
