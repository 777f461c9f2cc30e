// Chunked PMA backing (paper §V-A3, §VI-B): the driver backs VABlocks with
// one 2 MB root chunk while memory is plentiful and splits to 64 KB / 4 KB
// sub-chunks only under the free-memory watermarks; eviction frees chunks,
// not whole blocks; fully-resident split blocks re-coalesce to a root chunk.
#include <gtest/gtest.h>

#include <random>

#include "core/simulator.h"
#include "mem/chunk_tree.h"
#include "workloads/registry.h"

namespace uvmsim {
namespace {

// --- ChunkTree unit tests -------------------------------------------------

TEST(ChunkTree, ChildrenSumToParent) {
  ChunkTree t;
  t.set_root();
  EXPECT_EQ(t.backed_bytes(), kVaBlockSize);
  EXPECT_EQ(t.chunk_count(), 1u);

  // 32 big chunks carry exactly the root's bytes.
  t.clear();
  for (std::uint32_t g = 0; g < kBigPagesPerBlock; ++g) t.set_big(g);
  EXPECT_EQ(t.backed_bytes(), kVaBlockSize);
  EXPECT_EQ(t.chunk_count(), kBigPagesPerBlock);

  // 16 base chunks carry exactly one big chunk's bytes.
  t.clear();
  for (std::uint32_t p = 0; p < kPagesPerBigPage; ++p) t.set_base(p);
  EXPECT_EQ(t.backed_bytes(), kBigPageSize);
  EXPECT_EQ(t.chunk_count(), kPagesPerBigPage);
}

TEST(ChunkTree, CoverageAndQueries) {
  ChunkTree t;
  EXPECT_FALSE(t.any());
  t.set_big(2);    // pages [32, 48)
  t.set_base(100); // page 100 (big group 6)
  EXPECT_TRUE(t.fragmented());
  EXPECT_FALSE(t.root());
  EXPECT_TRUE(t.covers(32));
  EXPECT_TRUE(t.covers(47));
  EXPECT_FALSE(t.covers(48));
  EXPECT_TRUE(t.covers(100));
  EXPECT_TRUE(t.has_base_in(6));
  EXPECT_FALSE(t.has_base_in(2));
  PageMask m = t.backed_pages();
  EXPECT_EQ(m.count(), kPagesPerBigPage + 1);
  EXPECT_EQ(t.backed_bytes(), kBigPageSize + kPageSize);
}

TEST(ChunkTree, TakeChunksRootIsAllOrNothing) {
  ChunkTree t;
  t.set_root();
  PageMask pages;
  auto res = t.take_chunks(kPageSize, pages);  // asks for 4 KB, gets 2 MB
  EXPECT_EQ(res.bytes, kVaBlockSize);
  EXPECT_EQ(res.chunks, 1u);
  EXPECT_EQ(pages.count(), kPagesPerBlock);
  EXPECT_FALSE(t.any());
}

TEST(ChunkTree, TakeChunksAscendingUntilSatisfied) {
  ChunkTree t;
  t.set_base(3);
  t.set_big(1);    // pages [16, 32)
  t.set_base(40);  // group 2
  PageMask pages;

  // 8 KB wanted: page 3 (4 KB) then big chunk 1 (64 KB) — ascending order,
  // stops once satisfied, leaves page 40 alone.
  auto res = t.take_chunks(2 * kPageSize, pages);
  EXPECT_EQ(res.bytes, kPageSize + kBigPageSize);
  EXPECT_EQ(res.chunks, 2u);
  EXPECT_TRUE(pages.test(3));
  EXPECT_TRUE(pages.test(16));
  EXPECT_TRUE(pages.test(31));
  EXPECT_FALSE(pages.test(40));
  EXPECT_TRUE(t.covers(40));
  EXPECT_EQ(t.backed_bytes(), kPageSize);

  // Asking for more than remains empties the tree.
  PageMask rest;
  res = t.take_chunks(kVaBlockSize, rest);
  EXPECT_EQ(res.bytes, kPageSize);
  EXPECT_FALSE(t.any());
}

TEST(ChunkTree, BackedWordMatchesBackedPages) {
  // Random trees of every shape: root-backed, big chunks only, base chunks
  // only, and both (base chunks only outside big-backed groups). `want`
  // is the covered set built page by page from the chunks set.
  std::mt19937_64 rng(7);
  auto check = [](const ChunkTree& t, const PageMask& want) {
    const PageMask m = t.backed_pages();
    for (std::uint32_t w = 0; w < PageMask::kWords; ++w) {
      ASSERT_EQ(t.backed_word(w), m.word(w)) << "word " << w;
      ASSERT_EQ(t.backed_word(w), want.word(w)) << "word " << w;
    }
  };
  ChunkTree root;
  root.set_root();
  PageMask all;
  all.set_all();
  check(root, all);
  for (int trial = 0; trial < 200; ++trial) {
    const int shape = trial % 3;  // 0 big only, 1 base only, 2 mixed
    ChunkTree t;
    PageMask want;
    std::uint32_t big = 0;
    if (shape != 1) {
      big = static_cast<std::uint32_t>(rng());
      for (std::uint32_t g = 0; g < kBigPagesPerBlock; ++g) {
        if ((big >> g) & 1u) {
          t.set_big(g);
          want.set_range(g * kPagesPerBigPage, (g + 1) * kPagesPerBigPage);
        }
      }
    }
    if (shape != 0) {
      const std::uint64_t density = rng() % 64;  // sparse to near-full
      for (std::uint32_t p = 0; p < kPagesPerBlock; ++p) {
        if ((big >> big_page_of(p)) & 1u) continue;
        if (rng() % 64 < density) {
          t.set_base(p);
          want.set(p);
        }
      }
    }
    check(t, want);
  }
}

TEST(ChunkTree, TakeChunksReportsTheFreedSpan) {
  ChunkTree t;
  t.set_base(70);
  t.set_big(3);     // pages [48, 64)
  t.set_base(500);
  PageMask pages;
  auto res = t.take_chunks(kBigPageSize + 2 * kPageSize, pages);
  EXPECT_EQ(res.chunks, 3u);
  EXPECT_EQ(res.lo, 48u);
  EXPECT_EQ(res.hi, 501u);
  EXPECT_EQ(pages.count(), kPagesPerBigPage + 2);
  EXPECT_FALSE(t.any());

  t.set_root();
  PageMask all;
  res = t.take_chunks(kPageSize, all);
  EXPECT_EQ(res.lo, 0u);
  EXPECT_EQ(res.hi, kPagesPerBlock);
}

// --- split-only-under-pressure -------------------------------------------

TEST(Chunking, NoSplitWithoutPressure) {
  // Undersubscribed: the free fraction never crosses the default
  // watermarks, so every block keeps the historical 2 MB root backing.
  SimConfig cfg;
  cfg.set_gpu_memory(32ull << 20);
  cfg.enable_fault_log = false;
  Simulator sim(cfg);
  auto wl = make_workload("random", 8ull << 20);  // 25 % footprint
  wl->setup(sim);
  RunResult r = sim.run();

  EXPECT_EQ(r.counters.blocks_split, 0u);
  EXPECT_EQ(r.counters.subchunk_allocs, 0u);
  EXPECT_EQ(r.counters.blocks_coalesced, 0u);
  EXPECT_EQ(r.counters.partial_evictions, 0u);
  for (std::size_t b = 0; b < sim.address_space().num_blocks(); ++b) {
    const VaBlock& blk = sim.address_space().block(b);
    if (blk.backing.any()) {
      EXPECT_TRUE(blk.backing.root());
    }
  }
}

TEST(Chunking, StockPathMatchesChunkingDisabledWhenUndersubscribed) {
  auto run = [](bool enabled) {
    SimConfig cfg;
    cfg.set_gpu_memory(32ull << 20);
    cfg.enable_fault_log = false;
    cfg.driver.chunking.enabled = enabled;
    Simulator sim(cfg);
    auto wl = make_workload("random", 8ull << 20);
    wl->setup(sim);
    return sim.run();
  };
  RunResult on = run(true);
  RunResult off = run(false);
  EXPECT_EQ(on.end_time, off.end_time);
  EXPECT_EQ(on.counters.faults_serviced, off.counters.faults_serviced);
  EXPECT_EQ(on.bytes_h2d, off.bytes_h2d);
  EXPECT_EQ(on.pma_rm_calls, off.pma_rm_calls);
}

TEST(Chunking, SplitsUnderPressureAndAccountingHolds) {
  SimConfig cfg;
  cfg.set_gpu_memory(16ull << 20);
  cfg.enable_fault_log = false;
  cfg.driver.prefetch = PrefetchMode::Off;  // scattered demand stays scattered
  Simulator sim(cfg);
  auto wl = make_workload("random", 24ull << 20);  // 150 %
  wl->setup(sim);
  RunResult r = sim.run();

  EXPECT_GT(r.counters.blocks_split, 0u);
  EXPECT_GT(r.counters.subchunk_allocs, 0u);
  EXPECT_GT(r.counters.evictions, 0u);

  // Chunk-tree bytes and PMA bytes agree exactly at end of run.
  std::uint64_t backed_bytes = 0;
  for (std::size_t b = 0; b < sim.address_space().num_blocks(); ++b) {
    const VaBlock& blk = sim.address_space().block(b);
    backed_bytes += blk.backing.backed_bytes();
    // Residency only lives on backed chunks.
    EXPECT_EQ(blk.gpu_resident.and_not(blk.backing.backed_pages()).count(),
              0u);
  }
  EXPECT_EQ(backed_bytes, sim.pma().bytes_in_use());
  EXPECT_EQ(r.bytes_d2h, r.counters.pages_evicted * kPageSize);
}

// --- re-coalescing --------------------------------------------------------

TEST(Chunking, RecoalesceOnFullResidency) {
  // Watermarks above 1.0 force sub-chunk backing unconditionally; a regular
  // sweep then fills each block, which must re-merge into root chunks.
  SimConfig cfg;
  cfg.set_gpu_memory(16ull << 20);
  cfg.enable_fault_log = false;
  cfg.driver.chunking.split_watermark = 2.0;
  cfg.driver.chunking.fine_watermark = 2.0;
  cfg.driver.prefetch = PrefetchMode::Off;  // scattered demand, partial bins
  Simulator sim(cfg);
  auto wl = make_workload("random", 8ull << 20);  // 4 full blocks, fits
  wl->setup(sim);
  RunResult r = sim.run();

  EXPECT_GT(r.counters.blocks_split, 0u);
  EXPECT_GT(r.counters.blocks_coalesced, 0u);
  std::uint64_t roots = 0;
  for (std::size_t b = 0; b < sim.address_space().num_blocks(); ++b) {
    const VaBlock& blk = sim.address_space().block(b);
    if (blk.fully_resident()) {
      EXPECT_TRUE(blk.backing.root());
      ++roots;
    }
  }
  EXPECT_GT(roots, 0u);
}

// --- chunk-granularity eviction ------------------------------------------

TEST(Chunking, EvictionFreesOnlyDemandedChunks) {
  // 64 KiB GPU = 16 page frames. Fault 8 pages into each of two blocks
  // (all 4 KB chunks under forced fine pressure), then one more: the LRU
  // victim loses exactly one 4 KB chunk, not its whole backing.
  SimConfig cfg;
  cfg.set_gpu_memory(64ull << 10);
  cfg.pma.slab_chunks = 1;
  cfg.enable_fault_log = false;
  cfg.driver.chunking.split_watermark = 2.0;
  cfg.driver.chunking.fine_watermark = 2.0;
  cfg.driver.prefetch = PrefetchMode::Off;
  cfg.costs.driver_cold_start = 0;

  Simulator sim(cfg);
  RangeId rid = sim.malloc_managed(4ull << 20, "data");  // 2 blocks
  const VaRange& r = sim.address_space().range(rid);

  auto fault_page = [&](std::uint64_t block, std::uint32_t page) {
    FaultEntry e;
    e.page = r.first_page + block * kPagesPerBlock + page;
    e.block = block_of_page(e.page);
    e.range = rid;
    ASSERT_TRUE(sim.fault_buffer().push(e, sim.event_queue().now()));
    sim.driver().on_gpu_interrupt();
    sim.event_queue().run();
  };
  // Scattered pages (one per big group) so no 64 KB chunk is dense enough.
  for (std::uint32_t i = 0; i < 8; ++i) fault_page(0, i * 17);
  for (std::uint32_t i = 0; i < 8; ++i) fault_page(1, i * 17);
  ASSERT_EQ(sim.driver().counters().evictions, 0u);

  fault_page(1, 8 * 17);  // 17th frame: forces a 4 KB eviction

  const DriverCounters& c = sim.driver().counters();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.partial_evictions, 1u);
  EXPECT_EQ(c.chunks_evicted, 1u);
  EXPECT_EQ(c.pages_evicted, 1u);

  // Block 0 (LRU victim) lost exactly its lowest chunk, kept the rest.
  const VaBlock& blk0 = sim.address_space().block(r.first_block);
  EXPECT_FALSE(blk0.gpu_resident.test(0));
  EXPECT_FALSE(blk0.backing.covers(0));
  EXPECT_TRUE(blk0.gpu_resident.test(17));
  EXPECT_EQ(blk0.backing.backed_bytes(), 7 * kPageSize);
}

TEST(Chunking, EvictionSpanCoversEveryFreedWord) {
  // The LRU victim holds two 4 KB chunks, page 5 (word 0) and page 480
  // (word 7); a two-page bin of the other block takes both in one
  // eviction. evict_victim updates only the words the freed chunks span,
  // which here are all eight, so every word of the victim's masks must
  // match the whole-mask reference below.
  SimConfig cfg;
  cfg.set_gpu_memory(64ull << 10);  // 16 page frames
  cfg.pma.slab_chunks = 1;
  cfg.enable_fault_log = false;
  cfg.driver.chunking.split_watermark = 2.0;
  cfg.driver.chunking.fine_watermark = 2.0;
  cfg.driver.prefetch = PrefetchMode::Off;
  cfg.costs.driver_cold_start = 0;

  Simulator sim(cfg);
  RangeId rid = sim.malloc_managed(4ull << 20, "data");  // 2 blocks
  const VaRange& r = sim.address_space().range(rid);

  auto push = [&](std::uint64_t block, std::uint32_t page) {
    FaultEntry e;
    e.page = r.first_page + block * kPagesPerBlock + page;
    e.block = block_of_page(e.page);
    e.range = rid;
    ASSERT_TRUE(sim.fault_buffer().push(e, sim.event_queue().now()));
  };
  auto service = [&] {
    sim.driver().on_gpu_interrupt();
    sim.event_queue().run();
  };
  push(0, 5);
  service();
  push(0, 480);
  service();
  for (std::uint32_t i = 0; i < 14; ++i) {
    push(1, i * 17);
    service();
  }
  ASSERT_EQ(sim.driver().counters().evictions, 0u);

  // Victim state the eviction must fold: page 480 read-duplicated (no
  // writeback), dirty and unused-prefetch bits on freed and kept pages.
  VaBlock& victim = sim.address_space().block(r.first_block);
  ASSERT_TRUE(victim.gpu_resident.test(5));
  ASSERT_TRUE(victim.gpu_resident.test(480));
  victim.cpu_resident.set(480);
  victim.read_duplicated.set(480);
  victim.read_duplicated.set(200);
  victim.dirty.set(5);
  victim.dirty.set(300);
  victim.prefetched_unused.set(5);
  victim.prefetched_unused.set(481);
  const VaBlock before = victim;

  push(1, 300);
  push(1, 400);
  service();
  const DriverCounters& c = sim.driver().counters();
  ASSERT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.chunks_evicted, 2u);
  EXPECT_EQ(c.pages_evicted, 1u);  // page 5; page 480 had a host copy
  EXPECT_EQ(c.writebacks_avoided, 1u);
  EXPECT_EQ(c.prefetched_evicted_unused, 1u);

  // The whole-mask reference of the eviction's mask steps.
  const PageMask freed =
      before.backing.backed_pages().and_not(victim.backing.backed_pages());
  ASSERT_EQ(freed.count(), 2u);
  ASSERT_TRUE(freed.test(5));
  ASSERT_TRUE(freed.test(480));
  const PageMask resident = before.gpu_resident & freed;
  EXPECT_EQ(victim.gpu_resident, before.gpu_resident.and_not(resident));
  EXPECT_EQ(victim.cpu_resident, before.cpu_resident | resident);
  EXPECT_EQ(victim.dirty, before.dirty.and_not(freed));
  EXPECT_EQ(victim.read_duplicated, before.read_duplicated.and_not(freed));
  EXPECT_EQ(victim.prefetched_unused,
            before.prefetched_unused.and_not(freed));
}

// --- the paper's oversubscription verdict --------------------------------

TEST(Chunking, PrefetchOffWinsUnderRandomOversubscription) {
  // Fig. 9's headline: with chunked backing, disabling prefetching improves
  // oversubscribed random-access performance — prefetch keeps demanding
  // whole blocks that evict before use while demand paging gets cheap
  // 4 KB backing.
  auto run = [](bool prefetch) {
    SimConfig cfg;
    cfg.set_gpu_memory(32ull << 20);
    cfg.enable_fault_log = false;
    cfg.driver.prefetch = prefetch ? PrefetchMode::Tree : PrefetchMode::Off;
    Simulator sim(cfg);
    auto wl = make_workload("random", 64ull << 20);  // 200 %
    wl->setup(sim);
    return sim.run();
  };
  RunResult pf = run(true);
  RunResult nopf = run(false);
  EXPECT_LT(nopf.total_kernel_time(), pf.total_kernel_time());
}

}  // namespace
}  // namespace uvmsim
