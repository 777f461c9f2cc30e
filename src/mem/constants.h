// Memory-geometry constants shared by the whole simulator.
//
// These mirror the geometry of NVIDIA's UVM driver on x86 as described in the
// paper (§III-A): the host manages 4 KB OS pages; UVM groups them into 64 KB
// "big pages" (the Power9 page size, emulated on x86 by the prefetcher's
// first stage) and 2 MB virtual address blocks (VABlocks), the granularity of
// GPU physical allocation and eviction.
#pragma once

#include <cassert>
#include <cstdint>

namespace uvmsim {

/// Host OS page size (x86): 4 KB.
inline constexpr std::uint64_t kPageSize = 4096;

/// UVM "big page" size: 64 KB (16 OS pages). Faulted pages are upgraded to
/// this granularity by prefetch stage 1.
inline constexpr std::uint64_t kBigPageSize = 64 * 1024;

/// VABlock size: 2 MB. Unit of GPU physical allocation and eviction.
inline constexpr std::uint64_t kVaBlockSize = 2 * 1024 * 1024;

/// 4 KB pages per VABlock: 512 (so the prefetch tree has log2(512) = 9
/// levels above... including the leaf level, see uvm/prefetch_tree.h).
inline constexpr std::uint32_t kPagesPerBlock =
    static_cast<std::uint32_t>(kVaBlockSize / kPageSize);  // 512

/// 4 KB pages per big page: 16.
inline constexpr std::uint32_t kPagesPerBigPage =
    static_cast<std::uint32_t>(kBigPageSize / kPageSize);  // 16

/// Big pages per VABlock: 32.
inline constexpr std::uint32_t kBigPagesPerBlock =
    kPagesPerBlock / kPagesPerBigPage;  // 32

static_assert(kPagesPerBlock == 512);
static_assert(kPagesPerBigPage == 16);
static_assert(kBigPagesPerBlock == 32);

/// Global 4 KB virtual page number (virtual address >> 12).
using VirtPage = std::uint64_t;

/// Managed VA stays below this many pages (16 TiB): AddressSpace rejects a
/// range that would reach it, so every page of every range fits a LanePage.
inline constexpr std::uint64_t kVaPageLimit = std::uint64_t{1} << 32;

/// A 4 KB page number in 32 bits: the page of one warp lane, as access
/// streams store it.
using LanePage = std::uint32_t;

/// Page `p` of a managed range as a lane.
constexpr LanePage lane_page(VirtPage p) {
  assert(p < kVaPageLimit);
  return static_cast<LanePage>(p);
}

/// Global VABlock number (virtual address >> 21).
using VaBlockId = std::uint64_t;

/// Identifier of a managed allocation (one cudaMallocManaged() call).
using RangeId = std::uint32_t;

/// Sentinel for "no range".
inline constexpr RangeId kInvalidRange = ~RangeId{0};

/// The VABlock containing a page.
constexpr VaBlockId block_of_page(VirtPage p) { return p / kPagesPerBlock; }

/// Index of a page within its VABlock, in [0, 512).
constexpr std::uint32_t page_in_block(VirtPage p) {
  return static_cast<std::uint32_t>(p % kPagesPerBlock);
}

/// First global page of a VABlock.
constexpr VirtPage first_page_of_block(VaBlockId b) {
  return b * kPagesPerBlock;
}

/// Index of the big page containing in-block page index `i`, in [0, 32).
constexpr std::uint32_t big_page_of(std::uint32_t i) {
  return i / kPagesPerBigPage;
}

}  // namespace uvmsim
