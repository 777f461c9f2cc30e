#include "mem/pma.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace uvmsim {

PhysicalMemoryAllocator::PhysicalMemoryAllocator(const Config& cfg) : cfg_(cfg) {
  // SimConfig::validate() rejects these before any allocator is built.
  assert(cfg_.chunk_bytes != 0 && cfg_.chunk_bytes % kPageSize == 0);
  assert(cfg_.capacity_bytes >= kPageSize && cfg_.slab_chunks >= 1);
  usable_bytes_ = cfg_.capacity_bytes - cfg_.capacity_bytes % kPageSize;
}

PhysicalMemoryAllocator::AllocResult PhysicalMemoryAllocator::alloc_bytes(
    std::uint64_t bytes, SimTime now) {
  if (bytes == 0 || bytes % kPageSize != 0) {
    throw std::logic_error("PMA: allocation must be a positive page multiple");
  }
  AllocResult res;
  if (bytes > bytes_free()) return res;  // exhausted -> eviction required
  if (cached_bytes_ < bytes) {
    // Cache short: go to RM for at least a slab (clamped to unfetched
    // capacity). The request is always coverable here: bytes <= free ==
    // cached + unfetched.
    if (hazards_ != nullptr && hazards_->pma_transient_failure(now)) {
      // The round trip happened but produced nothing; the caller should
      // back off and retry rather than evict.
      ++failed_rm_calls_;
      res.transient = true;
      return res;
    }
    const std::uint64_t unfetched =
        usable_bytes_ - in_use_bytes_ - cached_bytes_;
    const std::uint64_t slab =
        std::uint64_t{cfg_.slab_chunks} * cfg_.chunk_bytes;
    cached_bytes_ += std::min(std::max(slab, bytes - cached_bytes_), unfetched);
    ++rm_calls_;
    res.rm_calls = 1;
  }
  cached_bytes_ -= bytes;
  in_use_bytes_ += bytes;
  ++allocs_;
  res.ok = true;
  return res;
}

void PhysicalMemoryAllocator::release_bytes(std::uint64_t bytes) {
  if (bytes > in_use_bytes_) {
    throw std::logic_error("PMA: free without alloc");
  }
  in_use_bytes_ -= bytes;
  cached_bytes_ += bytes;
}

}  // namespace uvmsim
