// Proves AccessStream::add builds an explicit record with at most one
// growth of the stream's lane vector, and a geometric one: a fresh stream
// given one 32-lane record allocates its lane and record vectors once each,
// and a stream of n records reallocates O(log n) times. The whole binary's
// operator new/delete are replaced with counting wrappers; this file must
// stay its own test executable.
#include "gpu/access.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <vector>

// GCC pairs gtest's inlined `new TestClass` with this file's malloc-backed
// operator delete and reports a mismatch; the pairing is in fact consistent
// (the replaced operator new allocates with malloc, delete frees with free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace uvmsim {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

TEST(AccessStreamAlloc, OneRecordAllocatesEachVectorOnce) {
  // 32 distinct lanes and 8 with repeats.
  std::vector<LanePage> wide(32);
  for (LanePage i = 0; i < 32; ++i) wide[i] = 1000 - 7 * i;
  std::vector<LanePage> narrow = {4, 4, 9, 1, 9, 2, 4, 3};
  for (const auto* lanes : {&wide, &narrow}) {
    AccessStream s;
    const std::uint64_t before = allocs();
    s.add(*lanes, true, 100);
    EXPECT_LE(allocs() - before, 2u) << lanes->size() << " lanes";
  }
}

TEST(AccessStreamAlloc, ManyRecordsReallocateLogarithmically) {
  constexpr std::uint32_t kRecords = 10000;
  AccessStream s;
  std::vector<LanePage> lanes;
  lanes.reserve(24);
  std::uint64_t total_lanes = 0;
  const std::uint64_t before = allocs();
  for (std::uint32_t r = 0; r < kRecords; ++r) {
    lanes.clear();
    const std::uint32_t n = 1 + r % 24;
    for (std::uint32_t j = 0; j < n; ++j) lanes.push_back(r * 64 + j);
    total_lanes += n;
    s.add(lanes, false, 0);
  }
  const std::uint64_t made = allocs() - before;
  // Doubling growth: one allocation per power of two, per vector. A stream
  // that grew per record would need ~kRecords.
  const std::uint64_t bound =
      std::bit_width(std::uint64_t{kRecords}) + std::bit_width(total_lanes) +
      2;
  EXPECT_LE(made, bound);
  EXPECT_EQ(s.total_page_touches(), total_lanes);
}

}  // namespace
}  // namespace uvmsim
