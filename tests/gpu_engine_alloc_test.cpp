// Proves GpuEngine's warp stepping allocates nothing per step: the heap
// allocations made while a kernel runs depend on its shape (warps per
// block, resident blocks, concurrent events, fault-buffer depth), never on
// how many records each warp executes, whether records list or describe
// their pages, or how many blocks a generated grid has beyond those the
// GPU holds at once. The whole binary's operator new/delete are replaced
// with counting wrappers; this file must stay its own test executable.
#include "gpu/gpu_engine.h"

#include <gtest/gtest.h>

#include <atomic>
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

constexpr std::uint32_t kBlocks = 2;
constexpr std::uint32_t kWarpsPerBlock = 4;
constexpr std::uint32_t kLanes = 4;  ///< pages per record

/// How the rig's kernel holds its records.
enum class Form {
  Explicit,   ///< stored blocks, page lists
  Strided,    ///< stored blocks, strided records
  Generated,  ///< strided records, each block generated at dispatch
};

/// One engine plus an instant driver stub: on interrupt it drains the fault
/// buffer, maps every faulted page and replays.
class Rig {
 public:
  /// With `paired`, warps 2i and 2i+1 touch the same pages.
  explicit Rig(std::uint32_t records, Form form = Form::Explicit,
               std::uint32_t blocks = kBlocks, bool paired = false)
      : fb_(FaultBuffer::Config{}),
        ac_(AccessCounters::Config{}, false),
        gpu_(cfg(), /*seed=*/0x5EED, eq_, as_, fb_, ac_),
        records_(records),
        form_(form),
        blocks_(blocks),
        paired_(paired) {
    const std::uint64_t pages =
        std::uint64_t{blocks} * kWarpsPerBlock * records * kLanes;
    rid_ = as_.create_range(pages * kPageSize, "data");
    gpu_.set_interrupt_handler([this] {
      if (service_scheduled_) return;
      service_scheduled_ = true;
      eq_.schedule_in(1000, [this] {
        service_scheduled_ = false;
        while (auto e = fb_.pop()) {
          PageMask m;
          m.set(page_in_block(e->page));
          as_.block(e->block).gpu_resident |= m;
          gpu_.on_pages_mapped(e->block, m);
        }
        gpu_.replay();
      });
    });
  }

  void make_resident() {
    for (VaBlockId b = 0; b < as_.num_blocks(); ++b) {
      VaBlock& blk = as_.block(b);
      blk.gpu_resident.set_range(0, blk.num_pages);
      gpu_.on_pages_mapped(b, blk.gpu_resident);
    }
  }

  /// Launches a kernel in which every record touches kLanes pages no other
  /// record touches, then counts the allocations of running it.
  std::uint64_t run_allocs() {
    const VirtPage first = as_.range(rid_).first_page;
    const std::uint32_t records = records_;
    const Form form = form_;
    const bool paired = paired_;
    // Warp w's record r: kLanes consecutive pages, every lane a row.
    const auto fill = [first, records, form, paired](std::uint64_t w,
                                                     AccessStream& s) {
      const std::uint64_t owner = paired ? w / 2 : w;
      for (std::uint32_t r = 0; r < records; ++r) {
        const VirtPage p = first + (owner * records + r) * kLanes;
        if (form == Form::Explicit) {
          std::vector<LanePage> lanes;
          for (VirtPage l = p; l < p + kLanes; ++l) {
            lanes.push_back(lane_page(l));
          }
          s.add(lanes, r % 2 == 0, 200);
        } else {
          s.add_strided(p, 0, kPageSize, kPageSize, kLanes, r % 2 == 0, 200);
        }
      }
    };
    kernel_.name = "lanes";
    if (form_ == Form::Generated) {
      kernel_.num_blocks = blocks_;
      kernel_.warps_per_block = kWarpsPerBlock;
      kernel_.make_block = [fill](std::uint32_t b, ThreadBlockSpec& blk) {
        for (std::uint32_t w = 0; w < kWarpsPerBlock; ++w) {
          fill(std::uint64_t{b} * kWarpsPerBlock + w, blk.warps[w]);
        }
      };
    } else {
      kernel_.blocks.resize(blocks_);
      for (std::uint32_t b = 0; b < blocks_; ++b) {
        kernel_.blocks[b].warps.resize(kWarpsPerBlock);
        for (std::uint32_t w = 0; w < kWarpsPerBlock; ++w) {
          fill(std::uint64_t{b} * kWarpsPerBlock + w,
               kernel_.blocks[b].warps[w]);
        }
      }
    }
    const std::uint64_t next =
        std::uint64_t{blocks_} * kWarpsPerBlock * records_ * kLanes;
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
  FaultBuffer fb_;
  AccessCounters ac_;
  GpuEngine gpu_;
  std::uint32_t records_;
  Form form_;
  std::uint32_t blocks_;
  bool paired_;
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

  // Warp pairs on the same pages: the later warp's lanes coalesce.
  Rig small_paired(kRecords, Form::Explicit, kBlocks, true);
  const std::uint64_t paired_base = small_paired.run_allocs();
  Rig large_paired(4 * kRecords, Form::Explicit, kBlocks, true);
  const std::uint64_t paired_allocs = large_paired.run_allocs();
  EXPECT_GT(large_paired.gpu().faults_coalesced(), 0u);
  EXPECT_EQ(paired_allocs, paired_base);
}

TEST(GpuEngineAlloc, StridedStepsAllocateNothing) {
  Rig small(kRecords, Form::Strided);
  small.make_resident();
  const std::uint64_t base = small.run_allocs();
  Rig large(4 * kRecords, Form::Strided);
  large.make_resident();
  EXPECT_EQ(large.run_allocs(), base);

  Rig small_faulting(kRecords, Form::Strided);
  const std::uint64_t faulting_base = small_faulting.run_allocs();
  Rig large_faulting(4 * kRecords, Form::Strided);
  EXPECT_EQ(large_faulting.run_allocs(), faulting_base);
}

TEST(GpuEngineAlloc, GeneratedGridAllocatesPerResidentBlock) {
  // 4 SMs x 2 slots hold 8 blocks: both grids fill every slot, so each
  // slot's streams grow on its first fill and are reused after that.
  Rig small(kRecords, Form::Generated, 16);
  small.make_resident();
  const std::uint64_t base = small.run_allocs();
  Rig large(kRecords, Form::Generated, 64);
  large.make_resident();
  EXPECT_EQ(large.run_allocs(), base);
}

}  // namespace
}  // namespace uvmsim
