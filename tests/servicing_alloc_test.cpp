// Proves that servicing faults allocates nothing per fault, per bin or per
// pass on either backend: a whole oversubscribed run (tree prefetch, LRU
// eviction) makes no more heap allocations when its touch count doubles,
// with tracing off and with every trace category on (so the tracer's
// record/span/instant run on every pass), and on the driver backend a
// warmed-up run services its remaining bins without a single allocation. The whole binary's operator new/delete are
// replaced with counting wrappers; this file must stay its own test
// executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/simulator.h"
#include "sim/rng.h"
#include "workloads/workload.h"

// GCC pairs gtest's inlined `new TestClass` with this file's malloc-backed
// operator delete and reports a mismatch; the pairing is in fact consistent
// (the replaced operator new allocates with malloc, delete frees with free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

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

constexpr std::uint64_t kRangeMiB = 16;  ///< 8 VABlocks
constexpr std::uint64_t kGpuMiB = 10;    ///< oversubscribed: 5 blocks fit
constexpr std::uint32_t kWarps = 64;
constexpr std::uint32_t kLanes = 32;

/// A simulation whose one kernel has kWarps warps of `records` random
/// 32-page records each, over one managed range. Doubling `records`
/// doubles the touches without changing the grid's shape.
class Rig {
 public:
  Rig(ServicingBackendKind backend, std::uint32_t records, bool traced = false)
      : sim_(config(backend, traced)) {
    const RangeId rid = sim_.malloc_managed(kRangeMiB << 20, "data");
    const VaRange& r = sim_.address_space().range(rid);
    Rng rng(0xA110C);
    GridBuilder g("random_records");
    std::vector<LanePage> pages;
    for (std::uint32_t w = 0; w < kWarps; ++w) {
      AccessStream& s = g.new_warp();
      for (std::uint32_t i = 0; i < records; ++i) {
        // 32 distinct pages, 61 apart from a random start: scattered over
        // four VABlocks, and none shared between lanes.
        const std::uint64_t start = rng.next_below(r.num_pages);
        pages.clear();
        for (std::uint32_t l = 0; l < kLanes; ++l) {
          pages.push_back(
              lane_page(r.first_page + (start + l * 61) % r.num_pages));
        }
        s.add(pages, /*write=*/i % 2 == 0, 200);
      }
    }
    sim_.launch(g.build());
  }

  /// Heap allocations made inside sim.run().
  std::uint64_t run_allocs() {
    const std::uint64_t before = allocs();
    result_ = sim_.run();
    return allocs() - before;
  }

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] const RunResult& result() const { return result_; }

 private:
  static SimConfig config(ServicingBackendKind backend, bool traced) {
    SimConfig c;
    c.trace.enabled = traced;
    c.trace.categories = kAllTraceCategories;
    c.seed = 7;
    c.set_gpu_memory(kGpuMiB << 20);
    c.driver.backend = backend;
    c.driver.prefetch = PrefetchMode::Tree;
    c.driver.eviction_policy = EvictionPolicyKind::Lru;
    c.enable_fault_log = false;
    return c;
  }

  Simulator sim_;
  RunResult result_;
};

constexpr std::uint32_t kRecords = 16;

void expect_flat_in_touches(ServicingBackendKind backend, bool traced) {
  SCOPED_TRACE(traced ? "tracing on, all categories" : "tracing off");
  Rig small(backend, kRecords, traced);
  const std::uint64_t base = small.run_allocs();
  Rig large(backend, 2 * kRecords, traced);
  const std::uint64_t doubled = large.run_allocs();

  const RunResult& s = small.result();
  const RunResult& l = large.result();
  ASSERT_EQ(l.kernels.at(0).page_touches, 2 * s.kernels.at(0).page_touches);
  // The mechanisms under test fired, and more of them in the larger run.
  EXPECT_GT(l.counters.evictions, s.counters.evictions);
  EXPECT_GT(s.counters.evictions, 0u);
  EXPECT_GT(s.counters.faults_fetched, 0u);
  EXPECT_GT(l.counters.faults_fetched, s.counters.faults_fetched);
  if (traced) {
    EXPECT_GT(large.sim().tracer()->recorded(),
              small.sim().tracer()->recorded());
  }
  EXPECT_LE(doubled, base) << "small run " << base << " allocations, "
                           << "doubled run " << doubled;
}

TEST(ServicingAlloc, DriverRunAllocationsDoNotGrowWithTouches) {
  for (const bool traced : {false, true}) {
    expect_flat_in_touches(ServicingBackendKind::DriverCentric, traced);
  }
}

TEST(ServicingAlloc, GpuDrivenRunAllocationsDoNotGrowWithTouches) {
  for (const bool traced : {false, true}) {
    expect_flat_in_touches(ServicingBackendKind::GpuDriven, traced);
  }
}

TEST(ServicingAlloc, DriverServicesBinsWithoutAllocatingAfterWarmUp) {
  // The same run twice: once to learn how many bins it services, once
  // stepped by hand, counting allocations after the first half of them.
  Rig probe(ServicingBackendKind::DriverCentric, 2 * kRecords);
  probe.run_allocs();
  const std::uint64_t bins = probe.result().counters.blocks_serviced;
  ASSERT_GT(probe.result().counters.pages_prefetched, 0u);

  Rig rig(ServicingBackendKind::DriverCentric, 2 * kRecords);
  EventQueue& eq = rig.sim().event_queue();
  const Driver& drv = rig.sim().driver();
  while (drv.counters().blocks_serviced < bins / 2 && eq.step()) {
  }
  const std::uint64_t warm_bins = drv.counters().blocks_serviced;
  const std::uint64_t warm_evictions = drv.counters().evictions;
  const std::uint64_t before = allocs();
  while (eq.step()) {
  }
  const std::uint64_t after = allocs();
  const std::uint64_t served = drv.counters().blocks_serviced - warm_bins;
  EXPECT_GT(served, 0u);
  EXPECT_GT(drv.counters().evictions, warm_evictions);
  EXPECT_EQ(after - before, 0u) << "over " << served << " serviced bins";
  // Stepping by hand reaches the same end as run().
  rig.run_allocs();
  EXPECT_EQ(rig.result().counters.blocks_serviced, bins);
}

}  // namespace
}  // namespace uvmsim
