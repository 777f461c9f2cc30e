// Kernel and memory-access descriptions fed to the GPU model.
//
// Workloads compile into a KernelSpec: a grid of thread blocks, each holding
// per-warp access streams. A stream is a sequence of records; each record is
// the set of distinct 4 KB pages one warp-wide (coalesced) access touches
// plus the compute time spent before the access. The GPU engine replays
// these streams, faulting on non-resident pages.
//
// A record is stored in one of two forms. An explicit record lists its
// pages as 32-bit lanes (one flattened lane vector per stream; AddressSpace
// keeps every page number below 2^32). A strided record describes
// them: `rows` byte segments at a fixed byte stride, which is how a tiled
// kernel walks a row-major matrix. Its pages are generated when the record
// executes, so regular kernels cost a few words per record, not a word per
// page.
//
// A kernel's blocks are stored, or generated one block at a time when the
// engine dispatches them; a generated grid never exists all at once.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mem/constants.h"
#include "sim/time.h"

namespace uvmsim {

/// One warp-wide access of `page_count` distinct pages. An explicit
/// record's lanes start at index `page_begin` of the owning stream's lane
/// vector; a strided record's descriptor is the stream's StridedAccess
/// number `page_begin`.
struct AccessRecord {
  std::uint32_t page_begin = 0;
  std::uint16_t page_count = 0;
  bool write = false;
  bool strided = false;
  std::uint32_t compute_ns = 0;  ///< compute preceding this access
};

/// The pages of `rows` byte segments of `seg_bytes` bytes, row i starting at
/// byte `offset + i * stride` of the range whose first page is `first`.
/// Its lanes are the pages of each row in row order, skipping a page an
/// earlier row touched; they ascend.
struct StridedAccess {
  VirtPage first = 0;
  std::uint64_t offset = 0;
  std::uint64_t stride = 0;
  std::uint32_t seg_bytes = 0;
  std::uint32_t rows = 0;

  /// True when every row is one page no other row shares: `seg_bytes`
  /// divides the page size (so it is a power of two up to a page), the
  /// offset and the stride, and the stride is at least a page. Row i is
  /// then lane i, page `first + (offset + i * stride) / kPageSize`.
  [[nodiscard]] bool one_page_rows() const {
    return std::has_single_bit(seg_bytes) && seg_bytes <= kPageSize &&
           ((offset | stride) & (seg_bytes - 1)) == 0 && stride >= kPageSize;
  }

  /// Lane `r` of a record with one_page_rows(): row r's page.
  [[nodiscard]] LanePage row_page(std::uint32_t r) const {
    return lane_page(first + (offset + r * stride) / kPageSize);
  }
};

/// The ordered accesses of a single warp.
class AccessStream {
 public:
  /// Appends a record touching the distinct pages of `pages` in first-
  /// occurrence order (one coalesced warp access). Throws if more than
  /// 65535 distinct pages remain.
  void add(std::span<const LanePage> pages, bool write,
           std::uint32_t compute_ns);

  /// Appends a record touching the contiguous pages [first, first+count):
  /// a strided record of one-page rows.
  void add_run(VirtPage first, std::uint32_t count, bool write,
               std::uint32_t compute_ns);

  /// Appends a strided record (see StridedAccess). Its lanes are the pages
  /// of each row in row order, skipping a page already touched by an
  /// earlier row: exactly what add() keeps of the concatenated row pages,
  /// since the rows ascend.
  void add_strided(VirtPage first, std::uint64_t offset,
                   std::uint32_t seg_bytes, std::uint64_t stride,
                   std::uint32_t rows, bool write, std::uint32_t compute_ns);

  /// Drops every record, keeping the storage for the next fill.
  void clear();

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] const AccessRecord& record(std::size_t i) const {
    return records_[i];
  }
  /// Pages of record i in lane order. An explicit record's span points into
  /// the stream; a strided record is expanded into `buf`.
  [[nodiscard]] std::span<const LanePage> pages(
      std::size_t i, std::vector<LanePage>& buf) const {
    const AccessRecord& r = records_[i];
    if (!r.strided) return {pages_.data() + r.page_begin, r.page_count};
    expand(strided_[r.page_begin], buf);
    return buf;
  }
  /// The descriptor of strided record i.
  [[nodiscard]] const StridedAccess& strided(std::size_t i) const {
    return strided_[records_[i].page_begin];
  }
  /// Total page-touches across all records.
  /// Test seam: access_stream_test and access_stream_alloc_test.
  [[nodiscard]] std::size_t total_page_touches() const;

 private:
  static void expand(const StridedAccess& s, std::vector<LanePage>& out);

  std::vector<LanePage> pages_;
  std::vector<StridedAccess> strided_;
  std::vector<AccessRecord> records_;
};

/// All warps of one thread block.
struct ThreadBlockSpec {
  std::vector<AccessStream> warps;
};

/// A full kernel launch: a stored grid (`blocks`), or a generated one of
/// `num_blocks` blocks of `warps_per_block` warps that `make_block` builds
/// on demand.
struct KernelSpec {
  std::string name;
  std::vector<ThreadBlockSpec> blocks;
  std::uint32_t num_blocks = 0;
  std::uint32_t warps_per_block = 0;
  /// Fills block `b`'s warps into `blk`, whose `warps_per_block` streams
  /// arrive empty. Must be a pure function of `b`.
  std::function<void(std::uint32_t b, ThreadBlockSpec& blk)> make_block;
  /// Abstract useful-work units performed by the kernel (e.g. 2*n^3 for
  /// sgemm); used for compute-rate metrics (Fig. 10).
  double work_units = 0.0;

  [[nodiscard]] std::uint32_t block_count() const {
    return make_block ? num_blocks
                      : static_cast<std::uint32_t>(blocks.size());
  }
  [[nodiscard]] std::size_t total_warps() const;
  /// Block `b`: the stored block, or block `b` generated into `slot`
  /// (whose streams keep their storage from earlier fills).
  const ThreadBlockSpec& block(std::uint32_t b, ThreadBlockSpec& slot) const;
};

}  // namespace uvmsim
