#include "gpu/access.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
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

/// Most distinct pages one record holds (AccessRecord::page_count).
constexpr std::size_t kMaxLanes = std::numeric_limits<std::uint16_t>::max();

// A warp access is a set of distinct pages. add() deduplicates but
// PRESERVES the caller's lane order: fault entries are raised in lane order
// on real hardware, and sorting would bias the driver-observed fault order
// of scattered access patterns.

/// Appends the first occurrence of each page of `pages`, in order, to
/// `out`, whose lanes from index `begin` on are the record's; `out` has
/// room for all of `pages`. Open addressing over a power-of-two table at
/// most 1/16 full, so a probe almost always decides on its first slot, in
/// expected O(1) per lane. A slot holds 1 + the record index of the lane
/// it saw, or 0 when empty. Returns false, having stopped early, if more
/// than kMaxLanes distinct pages appear.
bool append_distinct(std::span<const LanePage> pages,
                     std::vector<LanePage>& out, std::size_t begin) {
  constexpr std::size_t kStackSlots = 1024;
  // Sized by the lanes it can keep, not by the lanes it is given.
  const std::size_t slots =
      std::bit_ceil(16 * std::min(pages.size(), kMaxLanes + 1));
  const int shift = 32 - std::countr_zero(slots);
  std::array<std::uint16_t, kStackSlots> on_stack;  // first `slots` cleared
  std::vector<std::uint16_t> on_heap;
  std::uint16_t* table = on_stack.data();
  if (slots > kStackSlots) {
    on_heap.resize(slots);
    table = on_heap.data();
  } else {
    std::fill_n(table, slots, 0);
  }
  const LanePage* kept = out.data() + begin;
  for (LanePage p : pages) {
    // Fibonacci hashing: the top bits of p * 2^32/phi.
    std::size_t h = (p * 0x9E3779B9u) >> shift;
    for (;; h = (h + 1) & (slots - 1)) {
      if (table[h] == 0) {
        const std::size_t n = out.size() - begin;
        if (n == kMaxLanes) return false;
        out.push_back(p);
        table[h] = static_cast<std::uint16_t>(n + 1);
        break;
      }
      if (kept[table[h] - 1] == p) break;
    }
  }
  return true;
}

}  // namespace

void AccessStream::add(std::span<const LanePage> pages, bool write,
                       std::uint32_t compute_ns) {
  if (pages.empty()) throw std::invalid_argument("AccessStream: empty access");
  const std::size_t begin = pages_.size();
  assert(begin <= std::numeric_limits<std::uint32_t>::max());
  // At most one growth per record, and a geometric one, so a stream of n
  // records reallocates O(log n) times. The dedupe's appends then never
  // reallocate.
  if (pages_.capacity() - begin < pages.size()) {
    pages_.reserve(std::max(begin + pages.size(), 2 * pages_.capacity()));
  }
  if (!append_distinct(pages, pages_, begin)) {
    pages_.resize(begin);
    throw std::invalid_argument("AccessStream: more than 65535 pages");
  }

  AccessRecord rec;
  rec.page_begin = static_cast<std::uint32_t>(begin);
  rec.page_count = static_cast<std::uint16_t>(pages_.size() - begin);
  rec.write = write;
  rec.compute_ns = compute_ns;
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
  std::uint64_t lanes = rows;
  if (!s.one_page_rows()) {
    lanes = 0;
    for_each_new_run(s, [&lanes](std::uint64_t lo, std::uint64_t hi) {
      lanes += hi - lo + 1;
    });
  }
  if (lanes > kMaxLanes) {
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

void AccessStream::expand(const StridedAccess& s,
                          std::vector<LanePage>& out) {
  out.clear();
  if (s.one_page_rows()) {
    for (std::uint32_t r = 0; r < s.rows; ++r) out.push_back(s.row_page(r));
    return;
  }
  for_each_new_run(s, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t p = lo; p <= hi; ++p) {
      out.push_back(lane_page(s.first + p));
    }
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
