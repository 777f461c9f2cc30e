// Proves GpuEngine's warp stepping allocates nothing per step: the heap
// allocations made while a kernel runs depend on its shape (warps, blocks,
// concurrent events, fault-buffer depth), never on how many records each
// warp executes. The whole binary's operator new/delete are replaced with
// counting wrappers; this file must stay its own test executable.
#include "gpu/gpu_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "mem/page_table.h"

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

constexpr std::uint32_t kBlocks = 2;
constexpr std::uint32_t kWarpsPerBlock = 4;
constexpr std::uint32_t kLanes = 4;  ///< pages per record

/// One engine plus an instant driver stub: on interrupt it drains the fault
/// buffer, maps every faulted page and replays.
class Rig {
 public:
  explicit Rig(std::uint32_t records)
      : pt_(as_),
        fb_(FaultBuffer::Config{}),
        ac_(AccessCounters::Config{}),
        gpu_(cfg(), eq_, as_, pt_, fb_, ac_),
        records_(records) {
    const std::uint64_t pages =
        std::uint64_t{kBlocks} * kWarpsPerBlock * records * kLanes;
    rid_ = as_.create_range(pages * kPageSize, "data");
    gpu_.set_interrupt_handler([this] {
      if (service_scheduled_) return;
      service_scheduled_ = true;
      eq_.schedule_in(1000, [this] {
        service_scheduled_ = false;
        while (auto e = fb_.pop()) {
          PageMask m;
          m.set(page_in_block(e->page));
          pt_.map_pages(as_.block(e->block), m);
        }
        gpu_.replay();
      });
    });
  }

  void make_resident() {
    for (std::size_t b = 0; b < as_.num_blocks(); ++b) {
      as_.block(b).gpu_resident.set_range(0, as_.block(b).num_pages);
    }
  }

  /// Launches a kernel in which every record touches kLanes pages no other
  /// record touches, then counts the allocations of running it.
  std::uint64_t run_allocs() {
    const VirtPage first = as_.range(rid_).first_page;
    std::uint64_t next = 0;
    kernel_.name = "lanes";
    kernel_.blocks.resize(kBlocks);
    for (auto& blk : kernel_.blocks) {
      blk.warps.resize(kWarpsPerBlock);
      for (auto& s : blk.warps) {
        for (std::uint32_t r = 0; r < records_; ++r) {
          s.add_run(first + next, kLanes, r % 2 == 0, 200);
          next += kLanes;
        }
      }
    }
    bool done = false;
    gpu_.launch(&kernel_, [&done] { done = true; });
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    eq_.run();
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_TRUE(done);
    EXPECT_EQ(gpu_.kernel_stats().at(0).page_touches, next);
    return after - before;
  }

  [[nodiscard]] const GpuEngine& gpu() const { return gpu_; }

 private:
  static GpuEngine::Config cfg() {
    GpuEngine::Config c;
    c.num_sms = 4;
    c.max_blocks_per_sm = 2;
    c.utlb_fault_slots = 3;  // fewer than kLanes: steps also throttle
    return c;
  }

  EventQueue eq_;
  AddressSpace as_;
  PageTable pt_;
  FaultBuffer fb_;
  AccessCounters ac_;
  GpuEngine gpu_;
  std::uint32_t records_;
  RangeId rid_ = 0;
  KernelSpec kernel_;
  bool service_scheduled_ = false;
};

constexpr std::uint32_t kRecords = 32;

TEST(GpuEngineAlloc, ResidentStepsAllocateNothing) {
  Rig small(kRecords);
  small.make_resident();
  const std::uint64_t base = small.run_allocs();
  Rig large(4 * kRecords);
  large.make_resident();
  EXPECT_EQ(large.run_allocs(), base);
}

TEST(GpuEngineAlloc, FaultingStepsAllocateNothing) {
  Rig small(kRecords);
  const std::uint64_t base = small.run_allocs();
  Rig large(4 * kRecords);
  const std::uint64_t allocs = large.run_allocs();
  // Every page faults once; some lanes are throttled and retry.
  const KernelStats& ks = large.gpu().kernel_stats().at(0);
  EXPECT_EQ(ks.faults_raised, ks.page_touches);
  EXPECT_GT(large.gpu().faults_throttled(), 0u);
  EXPECT_EQ(allocs, base);
}

}  // namespace
}  // namespace uvmsim
