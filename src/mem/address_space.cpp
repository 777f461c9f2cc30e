#include "mem/address_space.h"

#include <stdexcept>

#include "core/errors.h"

namespace uvmsim {

RangeId AddressSpace::create_range(std::uint64_t bytes, std::string name,
                                   bool host_populated) {
  if (bytes == 0) throw std::invalid_argument("create_range: zero-byte range");

  VaRange r;
  r.id = static_cast<RangeId>(ranges_.size());
  r.name = std::move(name);
  r.bytes = bytes;
  r.num_pages = (bytes + kPageSize - 1) / kPageSize;
  // Ranges are laid out back to back, each starting on a VABlock boundary
  // (cudaMallocManaged returns block-aligned allocations for large sizes).
  r.first_block = blocks_.size();
  r.first_page = first_page_of_block(r.first_block);
  r.num_blocks = (r.num_pages + kPagesPerBlock - 1) / kPagesPerBlock;
  // The eviction policies link tracked blocks by 32-bit block index, with
  // ~0u as the nil link, so every block ID must lie below 2^32 - 1. Prove
  // the bound here, before any simulated time elapses: 2^32 blocks x 2 MB =
  // 8 EB of managed VA, beyond anything this simulates.
  if (r.first_block + r.num_blocks > (std::uint64_t{1} << 32) - 1) {
    throw ConfigError("AddressSpace.range_bytes",
                      "total managed VA needs 2^32 - 1 or more VABlocks; "
                      "block IDs would overflow the eviction policies' "
                      "32-bit links");
  }

  for (std::uint64_t b = 0; b < r.num_blocks; ++b) {
    VaBlock blk;
    blk.id = r.first_block + b;
    blk.range = r.id;
    blk.first_page = first_page_of_block(blk.id);
    std::uint64_t pages_before = b * kPagesPerBlock;
    std::uint64_t remaining = r.num_pages - pages_before;
    blk.num_pages = static_cast<std::uint32_t>(
        remaining < kPagesPerBlock ? remaining : kPagesPerBlock);
    if (host_populated) {
      blk.cpu_resident.set_range(0, blk.num_pages);
      blk.ever_populated.set_range(0, blk.num_pages);
    }
    blocks_.push_back(blk);
  }

  total_pages_ += r.num_pages;
  total_bytes_ += bytes;
  ranges_.push_back(r);
  return ranges_.back().id;
}

RangeId AddressSpace::range_of(VirtPage p) const {
  VaBlockId b = block_of_page(p);
  if (b >= blocks_.size()) return kInvalidRange;
  const VaBlock& blk = blocks_[b];
  if (!blk.valid()) return kInvalidRange;
  if (page_in_block(p) >= blk.num_pages) return kInvalidRange;
  return blk.range;
}

std::uint64_t AddressSpace::gpu_resident_pages() const {
  std::uint64_t n = 0;
  for (const auto& b : blocks_) n += b.gpu_resident.count();
  return n;
}

}  // namespace uvmsim
