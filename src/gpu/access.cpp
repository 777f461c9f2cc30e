#include "gpu/access.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace uvmsim {

namespace {

/// Calls `f(lo, hi)` for each row of `s` with the range-relative pages
/// [lo, hi] that row adds: its pages above the last page an earlier row
/// touched. Rows with nothing new are skipped.
template <typename F>
void for_each_new_run(const StridedAccess& s, F f) {
  std::uint64_t next = 0;  // lowest page no earlier row touched
  for (std::uint64_t row = 0; row < s.rows; ++row) {
    const std::uint64_t lo = s.offset + row * s.stride;
    const std::uint64_t hi = (lo + s.seg_bytes - 1) / kPageSize;
    const std::uint64_t start = std::max(lo / kPageSize, next);
    if (start > hi) continue;
    f(start, hi);
    next = hi + 1;
  }
}

}  // namespace

void AccessStream::add(std::span<const VirtPage> pages, bool write,
                       std::uint32_t compute_ns) {
  if (pages.empty()) throw std::invalid_argument("AccessStream: empty access");
  AccessRecord rec;
  rec.page_begin = static_cast<std::uint32_t>(pages_.size());
  rec.write = write;
  rec.compute_ns = compute_ns;

  // A warp access is a set of distinct pages. Deduplicate but PRESERVE the
  // caller's lane order: fault entries are raised in lane order on real
  // hardware, and sorting here would bias the driver-observed fault order
  // of scattered access patterns.
  std::size_t start = pages_.size();
  for (VirtPage p : pages) {
    bool seen = false;
    for (std::size_t i = start; i < pages_.size(); ++i) {
      if (pages_[i] == p) {
        seen = true;
        break;
      }
    }
    if (!seen) pages_.push_back(p);
  }
  rec.page_count = static_cast<std::uint16_t>(pages_.size() - start);
  records_.push_back(rec);
}

void AccessStream::add_run(VirtPage first, std::uint32_t count, bool write,
                           std::uint32_t compute_ns) {
  add_strided(first, 0, kPageSize, kPageSize, count, write, compute_ns);
}

void AccessStream::add_strided(VirtPage first, std::uint64_t offset,
                               std::uint32_t seg_bytes, std::uint64_t stride,
                               std::uint32_t rows, bool write,
                               std::uint32_t compute_ns) {
  if (seg_bytes == 0 || rows == 0) {
    throw std::invalid_argument("AccessStream: empty strided access");
  }
  const StridedAccess s{first, offset, stride, seg_bytes, rows};
  std::uint64_t lanes = 0;
  for_each_new_run(s, [&lanes](std::uint64_t lo, std::uint64_t hi) {
    lanes += hi - lo + 1;
  });
  if (lanes > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument("AccessStream: more than 65535 pages");
  }
  AccessRecord rec;
  rec.page_begin = static_cast<std::uint32_t>(strided_.size());
  rec.page_count = static_cast<std::uint16_t>(lanes);
  rec.write = write;
  rec.strided = true;
  rec.compute_ns = compute_ns;
  strided_.push_back(s);
  records_.push_back(rec);
}

void AccessStream::clear() {
  pages_.clear();
  strided_.clear();
  records_.clear();
}

std::size_t AccessStream::total_page_touches() const {
  std::size_t n = 0;
  for (const AccessRecord& r : records_) n += r.page_count;
  return n;
}

void AccessStream::expand(const StridedAccess& s, std::vector<VirtPage>& out) {
  out.clear();
  for_each_new_run(s, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t p = lo; p <= hi; ++p) out.push_back(s.first + p);
  });
}

std::size_t KernelSpec::total_warps() const {
  if (make_block) return std::size_t{num_blocks} * warps_per_block;
  std::size_t n = 0;
  for (const auto& b : blocks) n += b.warps.size();
  return n;
}

const ThreadBlockSpec& KernelSpec::block(std::uint32_t b,
                                         ThreadBlockSpec& slot) const {
  if (!make_block) return blocks[b];
  slot.warps.resize(warps_per_block);
  for (AccessStream& s : slot.warps) s.clear();
  make_block(b, slot);
  if (slot.warps.size() != warps_per_block) {
    throw std::logic_error("KernelSpec: make_block changed the warp count");
  }
  return slot;
}

}  // namespace uvmsim
