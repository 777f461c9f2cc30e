// Tests for the §III-A access behaviours beyond paged migration: remote
// mapping, read-only duplication, preferred location, plus the CPU-fault
// path and explicit prefetch.
#include <gtest/gtest.h>

#include "core/simulator.h"

namespace uvmsim {
namespace {

class AdviseTest : public ::testing::Test {
 protected:
  static SimConfig config() {
    SimConfig cfg;
    cfg.set_gpu_memory(16ull << 20);
    cfg.pma.slab_chunks = 2;
    cfg.costs.driver_cold_start = 0;
    return cfg;
  }

  explicit AdviseTest(SimConfig cfg = config()) : sim_(cfg) {}

  RangeId make_range(std::uint64_t bytes = 2ull << 20,
                     bool host_populated = true) {
    return sim_.malloc_managed(bytes, "r" + std::to_string(next_++),
                               host_populated);
  }

  void push_fault(VirtPage p, FaultAccessType a = FaultAccessType::Read) {
    FaultEntry e;
    e.page = p;
    e.block = block_of_page(p);
    e.range = sim_.address_space().range_of(p);
    e.access = a;
    ASSERT_TRUE(sim_.fault_buffer().push(e, sim_.event_queue().now()));
  }

  void interrupt_and_run() {
    sim_.driver().on_gpu_interrupt();
    sim_.event_queue().run();
  }

  Simulator sim_;
  int next_ = 0;
};

TEST_F(AdviseTest, RemoteMapInstallsWithoutMigration) {
  RangeId rid = make_range();
  MemAdvise a;
  a.remote_map = true;
  sim_.mem_advise(rid, a);
  VirtPage p = sim_.address_space().range(rid).first_page;
  push_fault(p);
  interrupt_and_run();

  const VaBlock& blk = sim_.address_space().block_of(p);
  EXPECT_TRUE(blk.remote_mapped.test(0));
  EXPECT_TRUE(blk.gpu_resident.none());
  EXPECT_EQ(sim_.driver().counters().pages_remote_mapped, 1u);
  EXPECT_EQ(sim_.driver().counters().pages_migrated_h2d, 0u);
  EXPECT_EQ(sim_.interconnect().bytes_moved(Direction::HostToDevice), 0u);
  // Remote mappings consume no GPU memory.
  EXPECT_EQ(sim_.pma().chunks_in_use(), 0u);
  // A repeated fault on the same page is stale, not re-serviced.
  push_fault(p);
  interrupt_and_run();
  EXPECT_EQ(sim_.driver().counters().stale_faults, 1u);
}

TEST_F(AdviseTest, RemoteMapSkipsPrefetcher) {
  RangeId rid = make_range();
  MemAdvise a;
  a.remote_map = true;
  sim_.mem_advise(rid, a);
  push_fault(sim_.address_space().range(rid).first_page);
  interrupt_and_run();
  EXPECT_EQ(sim_.driver().counters().pages_prefetched, 0u);
}

TEST_F(AdviseTest, FaultPrefetchSkipsRemoteMappedPages) {
  // A page remote-mapped earlier (here by advise; thrash Pin and no-victim
  // degradation leave the same state) must stay out of the density tree's
  // prefetch when a later fault in its big page migrates.
  ASSERT_EQ(sim_.config().driver.prefetch, PrefetchMode::Tree);
  ASSERT_EQ(sim_.config().driver.backend,
            ServicingBackendKind::DriverCentric);
  RangeId rid = make_range();
  MemAdvise a;
  a.remote_map = true;
  sim_.mem_advise(rid, a);
  const VirtPage first = sim_.address_space().range(rid).first_page;
  push_fault(first);
  interrupt_and_run();
  sim_.mem_advise(rid, MemAdvise{});
  push_fault(first + 1);
  interrupt_and_run();

  const VaBlock& blk = sim_.address_space().block_of(first);
  EXPECT_GT(sim_.driver().counters().pages_prefetched, 0u);
  EXPECT_TRUE(blk.gpu_resident.test(1));
  EXPECT_TRUE(blk.remote_mapped.test(0));
  EXPECT_TRUE((blk.remote_mapped & blk.gpu_resident).none());
}

TEST_F(AdviseTest, RemoteAccessesConsumeLinkBandwidth) {
  RangeId rid = make_range();
  MemAdvise a;
  a.remote_map = true;
  sim_.mem_advise(rid, a);
  const VaRange& r = sim_.address_space().range(rid);

  KernelSpec spec;
  spec.name = "remote_reader";
  spec.blocks.emplace_back();
  AccessStream s;
  for (int rep = 0; rep < 8; ++rep) {
    s.add_run(r.first_page, 16, /*write=*/false, 100);
  }
  spec.blocks.back().warps.push_back(std::move(s));
  sim_.launch(std::move(spec));
  RunResult res = sim_.run();

  EXPECT_GT(sim_.gpu().remote_accesses(), 0u);
  // Zero-copy traffic is accounted on the link, separately from bulk DMA.
  EXPECT_EQ(res.bytes_zero_copy,
            sim_.gpu().remote_accesses() *
                sim_.config().gpu.remote_access_bytes);
  EXPECT_EQ(res.bytes_h2d, 0u);
}

TEST_F(AdviseTest, ReadMostlyDuplicatesOnReadFault) {
  RangeId rid = make_range();
  MemAdvise a;
  a.read_mostly = true;
  sim_.mem_advise(rid, a);
  VirtPage p = sim_.address_space().range(rid).first_page;
  push_fault(p, FaultAccessType::Read);
  interrupt_and_run();

  const VaBlock& blk = sim_.address_space().block_of(p);
  EXPECT_TRUE(blk.gpu_resident.test(0));
  EXPECT_TRUE(blk.cpu_resident.test(0));  // host copy stays valid
  EXPECT_TRUE(blk.read_duplicated.test(0));
  EXPECT_GT(sim_.driver().counters().pages_duplicated, 0u);
}

TEST_F(AdviseTest, ReadMostlyWriteFaultMigratesNormally) {
  RangeId rid = make_range();
  MemAdvise a;
  a.read_mostly = true;
  sim_.mem_advise(rid, a);
  VirtPage p = sim_.address_space().range(rid).first_page;
  push_fault(p, FaultAccessType::Write);
  interrupt_and_run();

  const VaBlock& blk = sim_.address_space().block_of(p);
  EXPECT_TRUE(blk.gpu_resident.test(0));
  EXPECT_FALSE(blk.cpu_resident.test(0));
  EXPECT_FALSE(blk.read_duplicated.test(0));
}

TEST_F(AdviseTest, GpuWriteCollapsesDuplication) {
  RangeId rid = make_range();
  MemAdvise a;
  a.read_mostly = true;
  sim_.mem_advise(rid, a);
  const VaRange& r = sim_.address_space().range(rid);

  // Read kernel first (duplicates), then a write kernel to the same page.
  KernelSpec spec;
  spec.name = "read_then_write";
  spec.blocks.emplace_back();
  AccessStream s;
  s.add_run(r.first_page, 1, /*write=*/false, 200);
  s.add_run(r.first_page, 1, /*write=*/true, 200);
  spec.blocks.back().warps.push_back(std::move(s));
  sim_.launch(std::move(spec));
  sim_.run();

  const VaBlock& blk = sim_.address_space().block_of(r.first_page);
  EXPECT_FALSE(blk.read_duplicated.test(0));
  EXPECT_FALSE(blk.cpu_resident.test(0));  // host copy invalidated
  EXPECT_TRUE(blk.dirty.test(0));
}

TEST_F(AdviseTest, PrefetchAsyncPopulatesRange) {
  RangeId rid = make_range(4ull << 20);
  SimTime done = sim_.prefetch_async(rid);
  EXPECT_GT(done, 0u);
  const VaRange& r = sim_.address_space().range(rid);
  for (std::uint64_t b = 0; b < r.num_blocks; ++b) {
    EXPECT_TRUE(sim_.address_space().block(r.first_block + b).fully_resident());
  }
  EXPECT_EQ(sim_.driver().counters().prefetch_async_pages, r.num_pages);
  // One coalesced copy per block, not per page.
  EXPECT_LE(sim_.interconnect().transfers(Direction::HostToDevice),
            r.num_blocks);
  // Kernels launched afterwards see warm pages.
  KernelSpec spec;
  spec.name = "warm";
  spec.blocks.emplace_back();
  AccessStream s;
  s.add_run(r.first_page, 32, false, 200);
  spec.blocks.back().warps.push_back(std::move(s));
  sim_.launch(std::move(spec));
  RunResult res = sim_.run();
  EXPECT_EQ(res.kernels[0].faults_raised, 0u);
}

TEST_F(AdviseTest, PrefetchAsyncSkipsRemoteMappedPages) {
  RangeId rid = make_range(2ull << 20);
  MemAdvise a;
  a.remote_map = true;
  sim_.mem_advise(rid, a);
  // Map one page remotely via a fault, then bulk-prefetch the range.
  push_fault(sim_.address_space().range(rid).first_page);
  interrupt_and_run();
  sim_.prefetch_async(rid);
  const VaBlock& blk =
      sim_.address_space().block_of(sim_.address_space().range(rid).first_page);
  // The remote page stayed remote (zero-copy) and gained no GPU residency.
  EXPECT_TRUE(blk.remote_mapped.test(0));
  EXPECT_TRUE((blk.remote_mapped & blk.gpu_resident).none());
  // Everything else migrated normally.
  EXPECT_TRUE(blk.gpu_resident.test(1));
}

TEST_F(AdviseTest, PrefetchAsyncIsIdempotent) {
  RangeId rid = make_range(2ull << 20);
  sim_.prefetch_async(rid);
  auto migrated = sim_.driver().counters().pages_migrated_h2d;
  sim_.prefetch_async(rid);
  EXPECT_EQ(sim_.driver().counters().pages_migrated_h2d, migrated);
}

TEST_F(AdviseTest, PrefetchAsyncZeroFillsNeverPopulatedPages) {
  // cudaMemPrefetchAsync populates never-touched pages on the GPU: they are
  // zero-filled there, with nothing to copy over the link.
  RangeId rid = make_range(8ull << 20, /*host_populated=*/false);
  sim_.prefetch_async(rid);
  const VaRange& r = sim_.address_space().range(rid);
  const DriverCounters& c = sim_.driver().counters();
  EXPECT_EQ(c.prefetch_async_pages, r.num_pages);
  EXPECT_EQ(c.pages_zeroed, r.num_pages);
  EXPECT_EQ(c.pages_migrated_h2d, 0u);
  EXPECT_EQ(sim_.address_space().gpu_resident_pages(), r.num_pages);
  EXPECT_EQ(sim_.interconnect().bytes_moved(Direction::HostToDevice), 0u);
}

TEST_F(AdviseTest, HostReadMigratesGpuOnlyPagesBack) {
  RangeId rid = make_range(2ull << 20);
  sim_.prefetch_async(rid);  // everything on GPU, host copies invalid
  SimTime done = sim_.host_access(rid, /*write=*/false);
  EXPECT_GT(done, 0u);
  const VaRange& r = sim_.address_space().range(rid);
  const VaBlock& blk = sim_.address_space().block(r.first_block);
  EXPECT_EQ(blk.cpu_resident.count(), blk.num_pages);
  // Read access keeps the GPU mapping intact.
  EXPECT_EQ(blk.gpu_resident.count(), blk.num_pages);
  EXPECT_EQ(sim_.driver().counters().cpu_faults_serviced, r.num_pages);
  EXPECT_GT(sim_.interconnect().bytes_moved(Direction::DeviceToHost), 0u);
}

TEST_F(AdviseTest, HostWriteInvalidatesGpuCopies) {
  RangeId rid = make_range(2ull << 20);
  sim_.prefetch_async(rid);
  sim_.host_access(rid, /*write=*/true);
  const VaRange& r = sim_.address_space().range(rid);
  const VaBlock& blk = sim_.address_space().block(r.first_block);
  EXPECT_TRUE(blk.gpu_resident.none());
  EXPECT_EQ(blk.cpu_resident.count(), blk.num_pages);
}

TEST_F(AdviseTest, HostAccessToHostResidentDataIsFree) {
  RangeId rid = make_range(2ull << 20);  // never touched by the GPU
  auto before = sim_.interconnect().bytes_moved(Direction::DeviceToHost);
  sim_.host_access(rid, /*write=*/false);
  EXPECT_EQ(sim_.interconnect().bytes_moved(Direction::DeviceToHost), before);
  EXPECT_EQ(sim_.driver().counters().cpu_faults_serviced, 0u);
}

// --- eviction interactions ---

class AdviseEvictionTest : public AdviseTest {
 protected:
  static SimConfig tiny() {
    SimConfig cfg = AdviseTest::config();
    cfg.set_gpu_memory(4ull << 20);  // 2 chunks
    cfg.pma.slab_chunks = 1;
    return cfg;
  }
  AdviseEvictionTest() : AdviseTest(tiny()) {}
};

TEST_F(AdviseEvictionTest, DuplicatedPagesEvictWithoutWriteback) {
  RangeId rid = make_range(8ull << 20);  // 4 blocks on a 2-block GPU
  MemAdvise a;
  a.read_mostly = true;
  sim_.mem_advise(rid, a);
  VirtPage base = sim_.address_space().range(rid).first_page;

  push_fault(base, FaultAccessType::Read);
  interrupt_and_run();
  push_fault(base + kPagesPerBlock, FaultAccessType::Read);
  interrupt_and_run();
  push_fault(base + 2 * kPagesPerBlock, FaultAccessType::Read);
  interrupt_and_run();  // evicts block 0's duplicated pages

  const auto& c = sim_.driver().counters();
  EXPECT_GT(c.evictions, 0u);
  EXPECT_EQ(c.pages_evicted, 0u);  // no D2H transfer needed
  EXPECT_GT(c.writebacks_avoided, 0u);
  EXPECT_EQ(sim_.interconnect().bytes_moved(Direction::DeviceToHost), 0u);
}

TEST_F(AdviseEvictionTest, PreferredLocationGuidesVictimChoice) {
  RangeId pinned = make_range(2ull << 20);
  RangeId bulk = make_range(6ull << 20);
  MemAdvise a;
  a.preferred_location_gpu = true;
  sim_.mem_advise(pinned, a);

  // Fault the pinned block in FIRST so it sits at the LRU tail...
  push_fault(sim_.address_space().range(pinned).first_page);
  interrupt_and_run();
  VirtPage bulk_base = sim_.address_space().range(bulk).first_page;
  push_fault(bulk_base);
  interrupt_and_run();
  // ...then force an eviction: without the hint, "pinned" would be the LRU
  // victim; with it, the bulk block goes.
  push_fault(bulk_base + kPagesPerBlock);
  interrupt_and_run();

  EXPECT_GT(sim_.driver().counters().evictions, 0u);
  const VaBlock& pinned_blk =
      sim_.address_space().block_of(sim_.address_space().range(pinned).first_page);
  EXPECT_TRUE(pinned_blk.gpu_resident.any());  // survived
}

TEST_F(AdviseEvictionTest, RemoteMapAvoidsEvictionEntirely) {
  RangeId rid = make_range(8ull << 20);  // 2x GPU memory
  MemAdvise a;
  a.remote_map = true;
  sim_.mem_advise(rid, a);
  VirtPage base = sim_.address_space().range(rid).first_page;
  for (std::uint64_t b = 0; b < 4; ++b) {
    push_fault(base + b * kPagesPerBlock);
    interrupt_and_run();
  }
  EXPECT_EQ(sim_.driver().counters().evictions, 0u);
  EXPECT_EQ(sim_.pma().chunks_in_use(), 0u);
}

}  // namespace
}  // namespace uvmsim
