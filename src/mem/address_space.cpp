#include "mem/address_space.h"

#include <stdexcept>
#include <string>

#include "core/errors.h"

namespace uvmsim {

RangeId AddressSpace::create_range(std::uint64_t bytes, std::string name,
                                   bool host_populated) {
  if (bytes == 0) throw std::invalid_argument("create_range: zero-byte range");

  VaRange r;
  r.id = static_cast<RangeId>(ranges_.size());
  r.name = std::move(name);
  r.bytes = bytes;
  r.num_pages = bytes / kPageSize + (bytes % kPageSize != 0 ? 1 : 0);
  // Ranges are laid out back to back, each starting on a VABlock boundary
  // (cudaMallocManaged returns block-aligned allocations for large sizes).
  r.first_block = blocks_.size();
  r.first_page = first_page_of_block(r.first_block);
  r.num_blocks = (r.num_pages + kPagesPerBlock - 1) / kPagesPerBlock;
  // Access streams store a lane as a 32-bit page number, so the managed VA
  // must end below 2^32 pages (16 TiB). Prove it here, before a VaBlock is
  // built: a huge request fails as a config error, not as an allocation
  // failure. The bound also keeps block IDs far below the eviction
  // policies' 32-bit nil link.
  if (r.num_blocks >= kVaPageLimit / kPagesPerBlock - r.first_block) {
    throw ConfigError("AddressSpace.range_bytes",
                      "a range of " + std::to_string(bytes) +
                          " bytes takes managed VA to 2^32 pages (16 TiB) "
                          "or more; lanes store 32-bit page numbers");
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
