#include "mem/chunk_tree.h"

#include <algorithm>

namespace uvmsim {

ChunkTree::TakeResult ChunkTree::take_chunks(std::uint64_t want_bytes,
                                             PageMask& pages) {
  TakeResult res;
  if (root_) {
    root_ = false;
    pages.set_all();
    res.bytes = kVaBlockSize;
    res.chunks = 1;
    res.hi = kPagesPerBlock;
    return res;
  }
  // Ascending page order so partial eviction is deterministic and takes the
  // coldest end of the block first (LRU faults arrive in ascending order
  // within a bin). The next chunk is the lower of the lowest big chunk and
  // the next base chunk; no base chunk lies inside a big one.
  std::uint32_t next_base = base_.find_next_set(0);
  while (res.bytes < want_bytes &&
         (big_ != 0 || next_base < PageMask::kBits)) {
    const std::uint32_t big_lo =
        big_ == 0 ? PageMask::kBits
                  : static_cast<std::uint32_t>(std::countr_zero(big_)) *
                        kPagesPerBigPage;
    const std::uint32_t lo = std::min(big_lo, next_base);
    if (res.chunks++ == 0) res.lo = lo;
    if (big_lo < next_base) {
      big_ &= big_ - 1;
      res.hi = lo + kPagesPerBigPage;
      pages.set_range(lo, res.hi);
      res.bytes += kBigPageSize;
    } else {
      base_.reset(lo);
      res.hi = lo + 1;
      pages.set(lo);
      res.bytes += kPageSize;
      next_base = base_.find_next_set(res.hi);
    }
  }
  return res;
}

}  // namespace uvmsim
