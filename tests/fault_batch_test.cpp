#include "uvm/fault_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/rng.h"

namespace uvmsim {
namespace {

FaultBuffer::Config buf_cfg() {
  FaultBuffer::Config c;
  c.capacity = 1024;
  c.ready_lag = 300;
  return c;
}

FaultEntry entry(VirtPage p, FaultAccessType a = FaultAccessType::Read) {
  FaultEntry e;
  e.page = p;
  e.block = block_of_page(p);
  e.range = 0;
  e.access = a;
  return e;
}

class FaultBatchTest : public ::testing::Test {
 protected:
  FaultBatchTest() : fb_(buf_cfg()) {}
  FaultBuffer fb_;
  CostModel cm_;
};

TEST_F(FaultBatchTest, EmptyBufferEmptyBatch) {
  SimTime t = 1000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(t, 1000u);  // no fetch cost for nothing
}

TEST_F(FaultBatchTest, FetchesUpToBatchSize) {
  for (VirtPage p = 0; p < 300; ++p) fb_.push(entry(p), 0);
  SimTime t = 10000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b);
  EXPECT_EQ(b.fetched, 256u);
  EXPECT_EQ(fb_.size(), 44u);
}

TEST_F(FaultBatchTest, FetchCostsAdvanceCursor) {
  for (VirtPage p = 0; p < 10; ++p) fb_.push(entry(p), 0);
  SimTime t = 10000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b);
  EXPECT_EQ(b.fetched, 10u);
  // 10 fetches + 10 * (sort + bin); entries were ready (pushed at t=0).
  SimDuration expected = 10 * cm_.fetch_per_fault +
                         10 * (cm_.sort_per_fault + cm_.bin_per_fault);
  EXPECT_EQ(t, 10000u + expected);
}

TEST_F(FaultBatchTest, PollsNotReadyEntries) {
  fb_.push(entry(1), 5000);  // ready at 5300
  SimTime t = 5000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b);
  EXPECT_EQ(b.fetched, 1u);
  EXPECT_GE(b.polls, 1u);
  EXPECT_GE(t, 5300u);  // waited for readiness
}

TEST_F(FaultBatchTest, BinsByBlockSorted) {
  fb_.push(entry(kPagesPerBlock + 5), 0);  // block 1
  fb_.push(entry(3), 0);                   // block 0
  fb_.push(entry(kPagesPerBlock + 9), 0);  // block 1
  SimTime t = 1000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b);
  ASSERT_EQ(b.bins.size(), 2u);
  EXPECT_EQ(b.bins[0].block, 0u);
  EXPECT_EQ(b.bins[1].block, 1u);
  EXPECT_TRUE(b.bins[0].faulted.test(3));
  EXPECT_TRUE(b.bins[1].faulted.test(5));
  EXPECT_TRUE(b.bins[1].faulted.test(9));
  EXPECT_EQ(b.bins[1].fault_entries, 2u);
}

TEST_F(FaultBatchTest, DeduplicatesSamePage) {
  fb_.push(entry(7), 0);
  fb_.push(entry(7), 0);
  fb_.push(entry(7), 0);
  SimTime t = 1000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b);
  EXPECT_EQ(b.fetched, 3u);
  EXPECT_EQ(b.duplicates, 2u);
  ASSERT_EQ(b.bins.size(), 1u);
  EXPECT_EQ(b.bins[0].faulted.count(), 1u);
  EXPECT_EQ(b.bins[0].fault_entries, 3u);
}

TEST_F(FaultBatchTest, WriteAccessDominates) {
  fb_.push(entry(1, FaultAccessType::Read), 0);
  fb_.push(entry(2, FaultAccessType::Write), 0);
  SimTime t = 1000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b);
  ASSERT_EQ(b.bins.size(), 1u);
  EXPECT_EQ(b.bins[0].strongest_access, FaultAccessType::Write);
}

TEST_F(FaultBatchTest, ReadThenWriteDuplicateUpgradesAccess) {
  // Regression: the dedup skip used to run before the access-type check, so
  // a Read-then-Write pair on one page kept the bin at Read and a later
  // read-mostly duplication would wrongly keep a stale copy.
  fb_.push(entry(7, FaultAccessType::Read), 0);
  fb_.push(entry(7, FaultAccessType::Write), 0);
  SimTime t = 1000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b);
  EXPECT_EQ(b.duplicates, 1u);
  ASSERT_EQ(b.bins.size(), 1u);
  EXPECT_EQ(b.bins[0].strongest_access, FaultAccessType::Write);
}

TEST_F(FaultBatchTest, WriteThenReadDuplicateStaysWrite) {
  // Both same-page orders must upgrade — the sort is by page only, so the
  // relative order of equal-page entries is unspecified.
  fb_.push(entry(7, FaultAccessType::Write), 0);
  fb_.push(entry(7, FaultAccessType::Read), 0);
  fb_.push(entry(7, FaultAccessType::Read), 0);
  SimTime t = 1000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b);
  EXPECT_EQ(b.duplicates, 2u);
  ASSERT_EQ(b.bins.size(), 1u);
  EXPECT_EQ(b.bins[0].strongest_access, FaultAccessType::Write);
}

TEST_F(FaultBatchTest, QueueLatencySampledPerFetchedEntry) {
  fb_.push(entry(1), 100);
  fb_.push(entry(2), 200);
  LogHistogram lat;
  SimTime t = 10000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b, FetchPolicy::PollReady, &lat);
  EXPECT_EQ(b.fetched, 2u);
  EXPECT_EQ(lat.count(), 2u);
  EXPECT_EQ(b.latency_clamps, 0u);
}

TEST_F(FaultBatchTest, ClampsQueueLatencyFromFutureRaiseTime) {
  // Regression: an entry whose (corrupted) raise time is past the fetch
  // cursor used to be silently skipped, undercounting the histogram. It now
  // contributes a zero sample and is counted in latency_clamps.
  FaultEntry e = entry(3);
  e.raised_at = 1'000'000;  // far past where the cursor will be
  e.ready_at = 0;
  ASSERT_TRUE(fb_.push_preserving_timestamps(e));
  fb_.push(entry(4), 0);
  LogHistogram lat;
  SimTime t = 1000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b, FetchPolicy::PollReady, &lat);
  EXPECT_EQ(b.fetched, 2u);
  EXPECT_EQ(lat.count(), 2u);  // the clamped sample is recorded, not dropped
  EXPECT_EQ(b.latency_clamps, 1u);
}

TEST_F(FaultBatchTest, RefetchResetsTheBatchAndKeepsItsCapacity) {
  // The driver refills one batch every pass: a fetch must reset every count
  // and bin of the previous one, and a smaller batch must reuse its vectors.
  for (VirtPage p = 0; p < 40; ++p) {
    fb_.push(entry(p * kPagesPerBlock), 0);
    fb_.push(entry(p * kPagesPerBlock), 0);  // a duplicate per bin
  }
  SimTime t = 100000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b);
  ASSERT_EQ(b.bins.size(), 40u);
  ASSERT_EQ(b.duplicates, 40u);
  const FaultBatch::Bin* bins = b.bins.data();
  const FaultEntry* staging = b.staging.data();

  fb_.push(entry(7), 0);
  fb_.push(entry(kPagesPerBlock + 3), 0);
  Preprocessor::fetch(fb_, 256, cm_, t, b);
  EXPECT_EQ(b.fetched, 2u);
  EXPECT_EQ(b.duplicates, 0u);
  EXPECT_EQ(b.polls, 0u);
  ASSERT_EQ(b.bins.size(), 2u);
  EXPECT_EQ(b.bins[0].block, 0u);
  EXPECT_EQ(b.bins[0].fault_entries, 1u);
  EXPECT_EQ(b.bins[0].faulted.count(), 1u);
  EXPECT_TRUE(b.bins[0].faulted.test(7));
  EXPECT_EQ(b.bins[1].block, 1u);
  EXPECT_TRUE(b.bins[1].faulted.test(3));
  EXPECT_EQ(b.bins.data(), bins);
  EXPECT_EQ(b.staging.data(), staging);

  Preprocessor::fetch(fb_, 256, cm_, t, b);  // nothing left
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.bins.empty());
}

TEST_F(FaultBatchTest, StopAtNotReadyClosesBatchEarly) {
  fb_.push(entry(1), 0);     // ready at 300
  fb_.push(entry(2), 5000);  // ready at 5300
  SimTime t = 1000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b, FetchPolicy::StopAtNotReady);
  EXPECT_EQ(b.fetched, 1u);       // the laggard stays for the next pass
  EXPECT_EQ(fb_.size(), 1u);
  EXPECT_EQ(b.polls, 0u);
  EXPECT_LT(t, 5000u);            // did not wait for the laggard
}

TEST_F(FaultBatchTest, StopAtNotReadyStillPollsLeadingLaggard) {
  // An empty batch would make no progress: the first entry is polled even
  // under StopAtNotReady.
  fb_.push(entry(1), 5000);  // ready at 5300
  SimTime t = 5000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 256, cm_, t, b, FetchPolicy::StopAtNotReady);
  EXPECT_EQ(b.fetched, 1u);
  EXPECT_GE(t, 5300u);
}

// Reference binning: the std::map-based implementation the sort-then-group
// code replaced. Takes the entries the fetch will consume (FIFO order) and
// reproduces sort -> map-bin -> upgrade-before-dedup exactly.
struct RefBatch {
  std::vector<FaultBatch::Bin> bins;
  std::uint32_t duplicates = 0;
};

RefBatch ref_bin(std::vector<FaultEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const FaultEntry& a, const FaultEntry& b) {
              return a.page < b.page;
            });
  RefBatch out;
  std::map<VaBlockId, FaultBatch::Bin> bins;
  VirtPage prev_page = ~VirtPage{0};
  for (const FaultEntry& e : entries) {
    FaultBatch::Bin& bin = bins[e.block];
    bin.block = e.block;
    ++bin.fault_entries;
    if (e.access == FaultAccessType::Write) {
      bin.strongest_access = FaultAccessType::Write;
    }
    if (e.page == prev_page) {
      ++out.duplicates;
      continue;
    }
    prev_page = e.page;
    bin.faulted.set(page_in_block(e.page));
  }
  for (auto& [block, bin] : bins) out.bins.push_back(bin);
  return out;
}

void expect_bins_equal(const FaultBatch& got, const RefBatch& want) {
  EXPECT_EQ(got.duplicates, want.duplicates);
  ASSERT_EQ(got.bins.size(), want.bins.size());
  for (std::size_t i = 0; i < want.bins.size(); ++i) {
    const auto& g = got.bins[i];
    const auto& w = want.bins[i];
    EXPECT_EQ(g.block, w.block) << "bin " << i;
    EXPECT_EQ(g.fault_entries, w.fault_entries) << "bin " << i;
    EXPECT_EQ(g.strongest_access, w.strongest_access) << "bin " << i;
    EXPECT_EQ(g.faulted, w.faulted) << "bin " << i;
  }
}

TEST_F(FaultBatchTest, SortThenGroupMatchesMapReferenceOnRandomStreams) {
  // Property test for the sort-then-group binning: on arbitrary fault
  // streams (duplicates, mixed access types, blocks in any order) the bins
  // must be identical — contents, emission order, and strongest-access — to
  // the old std::map reference.
  Rng rng(77);
  FaultBatch b;  // one batch refilled every trial, as the driver does
  for (int trial = 0; trial < 50; ++trial) {
    FaultBuffer fb(buf_cfg());
    const std::uint32_t n_blocks = 1 + static_cast<std::uint32_t>(
        rng.next_below(6));
    const std::uint32_t n_entries = 1 + static_cast<std::uint32_t>(
        rng.next_below(200));
    std::vector<FaultEntry> pushed;
    for (std::uint32_t i = 0; i < n_entries; ++i) {
      const VirtPage block = rng.next_below(n_blocks);
      // Small in-block spread makes same-page duplicates common.
      const VirtPage p = block * kPagesPerBlock + rng.next_below(40);
      FaultEntry e = entry(p, rng.next_below(4) == 0 ? FaultAccessType::Write
                                                     : FaultAccessType::Read);
      ASSERT_TRUE(fb.push(e, 0));
      pushed.push_back(e);
    }
    SimTime t = 100000;
    Preprocessor::fetch(fb, 256, cm_, t, b);
    ASSERT_EQ(b.fetched, n_entries);
    expect_bins_equal(b, ref_bin(pushed));
  }
}

TEST_F(FaultBatchTest, SortThenGroupMatchesReferenceWithPartialFetch) {
  // When batch_size < buffer depth, only the first batch_size entries (FIFO
  // pop order) are binned; the reference must see the same prefix.
  Rng rng(88);
  FaultBuffer fb(buf_cfg());
  std::vector<FaultEntry> pushed;
  for (std::uint32_t i = 0; i < 150; ++i) {
    const VirtPage p = rng.next_below(4) * kPagesPerBlock + rng.next_below(64);
    FaultEntry e = entry(p, rng.next_below(3) == 0 ? FaultAccessType::Write
                                                   : FaultAccessType::Read);
    ASSERT_TRUE(fb.push(e, 0));
    pushed.push_back(e);
  }
  SimTime t = 100000;
  FaultBatch b;
  Preprocessor::fetch(fb, 64, cm_, t, b);
  ASSERT_EQ(b.fetched, 64u);
  pushed.resize(64);
  expect_bins_equal(b, ref_bin(pushed));
}

TEST_F(FaultBatchTest, BinsEmittedInAscendingBlockOrder) {
  // Strongest invariant downstream servicing relies on: bins sorted by block.
  Rng rng(99);
  FaultBuffer fb(buf_cfg());
  for (std::uint32_t i = 0; i < 120; ++i) {
    const VirtPage p =
        rng.next_below(10) * kPagesPerBlock + rng.next_below(kPagesPerBlock);
    ASSERT_TRUE(fb.push(entry(p), 0));
  }
  SimTime t = 100000;
  FaultBatch b;
  Preprocessor::fetch(fb, 256, cm_, t, b);
  for (std::size_t i = 1; i < b.bins.size(); ++i) {
    EXPECT_LT(b.bins[i - 1].block, b.bins[i].block);
  }
}

TEST_F(FaultBatchTest, SmallBatchSizeRespected) {
  for (VirtPage p = 0; p < 10; ++p) fb_.push(entry(p), 0);
  SimTime t = 1000;
  FaultBatch b;
  Preprocessor::fetch(fb_, 4, cm_, t, b);
  EXPECT_EQ(b.fetched, 4u);
  EXPECT_EQ(fb_.size(), 6u);
}

}  // namespace
}  // namespace uvmsim
