#include "gpu/utlb.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace uvmsim {
namespace {

/// Reference model: the µTLB as it was first written — a ring of
/// epoch-stamped slots plus a tag -> (epoch, live copies) membership map.
/// Slow but obviously right; Utlb must answer every lookup the same way.
class MapMirrorUtlb {
 public:
  explicit MapMirrorUtlb(std::uint32_t entries)
      : slots_(entries, kEmpty), slot_epoch_(entries, 0) {}

  bool lookup(VirtPage p) const {
    auto it = tags_.find(p / kPagesPerBigPage);
    return it != tags_.end() && it->second.epoch == epoch_ &&
           it->second.copies > 0;
  }

  void insert(VirtPage p) {
    if (slots_[next_] != kEmpty && slot_epoch_[next_] == epoch_) {
      Entry& old = tags_[slots_[next_]];
      if (old.epoch == epoch_ && old.copies > 0) --old.copies;
    }
    const std::uint64_t tag = p / kPagesPerBigPage;
    slots_[next_] = tag;
    slot_epoch_[next_] = epoch_;
    Entry& e = tags_[tag];
    if (e.epoch != epoch_) e = Entry{epoch_, 0};
    ++e.copies;
    next_ = (next_ + 1) % slots_.size();
  }

  void invalidate_all() {
    ++epoch_;
    ++invalidations_;
  }

  std::uint64_t invalidations() const { return invalidations_; }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;
  struct Entry {
    std::uint64_t epoch = 0;
    std::uint32_t copies = 0;
  };
  std::vector<std::uint64_t> slots_;
  std::vector<std::uint64_t> slot_epoch_;
  std::unordered_map<std::uint64_t, Entry> tags_;
  std::uint64_t epoch_ = 0;
  std::size_t next_ = 0;
  std::uint64_t invalidations_ = 0;
};

TEST(Utlb, MissWhenEmpty) {
  Utlb t(4);
  EXPECT_FALSE(t.lookup(0));
}

TEST(Utlb, InsertThenHit) {
  Utlb t(4);
  t.insert(100);
  EXPECT_TRUE(t.lookup(100));
}

TEST(Utlb, BigPageGranularity) {
  Utlb t(4);
  t.insert(0);
  // All pages in the same 16-page big page hit.
  for (VirtPage p = 0; p < kPagesPerBigPage; ++p) EXPECT_TRUE(t.lookup(p));
  EXPECT_FALSE(t.lookup(kPagesPerBigPage));
}

TEST(Utlb, RoundRobinEviction) {
  Utlb t(2);
  t.insert(0 * kPagesPerBigPage);
  t.insert(1 * kPagesPerBigPage);
  t.insert(2 * kPagesPerBigPage);  // evicts the first slot
  EXPECT_FALSE(t.lookup(0));
  EXPECT_TRUE(t.lookup(1 * kPagesPerBigPage));
  EXPECT_TRUE(t.lookup(2 * kPagesPerBigPage));
}

TEST(Utlb, InvalidateAllClears) {
  Utlb t(4);
  t.insert(0);
  t.insert(100);
  t.invalidate_all();
  EXPECT_FALSE(t.lookup(0));
  EXPECT_FALSE(t.lookup(100));
  EXPECT_EQ(t.invalidations(), 1u);
}

TEST(Utlb, ReinsertAfterInvalidate) {
  Utlb t(4);
  t.insert(5);
  t.invalidate_all();
  t.insert(5);
  EXPECT_TRUE(t.lookup(5));
}

TEST(Utlb, ZeroEntriesRejected) {
  EXPECT_THROW(Utlb(0), std::invalid_argument);
}

TEST(Utlb, DuplicateInsertStaysLiveUntilLastCopyLeaves) {
  // The engine only inserts after a miss, but the ring itself allows a tag
  // in several slots; it stays cached until its last copy is overwritten.
  Utlb t(3);
  t.insert(0);
  t.insert(0);                     // second copy of tag 0
  t.insert(kPagesPerBigPage);      // ring full: [0, 0, 1]
  t.insert(2 * kPagesPerBigPage);  // overwrites the first copy
  EXPECT_TRUE(t.lookup(0));
  t.insert(3 * kPagesPerBigPage);  // overwrites the last copy
  EXPECT_FALSE(t.lookup(0));
  EXPECT_TRUE(t.lookup(kPagesPerBigPage));
}

/// Drives `fast` and `ref` through `ops` random operations on pages from
/// `tag_space` big pages: half lookups, half inserts, and an invalidate_all
/// with probability 1/`invalidate_odds` (never when it is 0). Every lookup
/// must agree; returns {hits, misses} as the reference model counted them
/// after checking that `fast` counted the same totals.
std::pair<std::uint64_t, std::uint64_t> run_oracle(Utlb& fast,
                                                   MapMirrorUtlb& ref,
                                                   Rng& rng,
                                                   std::uint64_t tag_space,
                                                   std::uint64_t invalidate_odds,
                                                   int ops) {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t fast_hits = 0;
  std::uint64_t fast_misses = 0;
  for (int op = 0; op < ops; ++op) {
    const VirtPage p = rng.next_below(tag_space * kPagesPerBigPage);
    if (invalidate_odds != 0 && rng.next_below(invalidate_odds) == 0) {
      fast.invalidate_all();
      ref.invalidate_all();
    } else if (rng.next_below(2) == 0) {
      const bool want = ref.lookup(p);
      const bool got = fast.lookup(p);
      (want ? hits : misses) += 1;
      (got ? fast_hits : fast_misses) += 1;
      EXPECT_EQ(got, want) << "op " << op << " page " << p;
      if (got != want) break;
    } else {
      fast.insert(p);
      ref.insert(p);
    }
  }
  EXPECT_EQ(fast_hits, hits);
  EXPECT_EQ(fast_misses, misses);
  EXPECT_EQ(fast.invalidations(), ref.invalidations());
  return {hits, misses};
}

class UtlbOracle : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(UtlbOracle, MatchesMapMirrorModel) {
  const std::uint32_t entries = GetParam();
  Utlb fast(entries);
  MapMirrorUtlb ref(entries);
  Rng rng(0xC0FFEE + entries);
  // Tags drawn from about twice the ring size, so lookups both hit and
  // miss, inserts both duplicate live tags and evict, and the ring wraps
  // several times between invalidates.
  const auto [hits, misses] =
      run_oracle(fast, ref, rng, 2ull * entries + 3, 8ull * entries + 50,
                 20000);
  EXPECT_GT(ref.invalidations(), 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

TEST_P(UtlbOracle, ChainUnlinkingMatchesMapMirrorModel) {
  // Stresses overwrites: a tag space of about 1.5x the ring, so most
  // overwrites hit a tag that was inserted again since, and long stretches
  // (~50 ring wraps) without an invalidate, so tags leave only one
  // overwrite at a time. A second phase never invalidates at all.
  const std::uint32_t entries = GetParam();
  Utlb fast(entries);
  MapMirrorUtlb ref(entries);
  Rng rng(0xBADC0DE + entries);
  const std::uint64_t tag_space = entries + entries / 2 + 1;
  const auto [hits, misses] =
      run_oracle(fast, ref, rng, tag_space, 100ull * entries + 100, 40000);
  const auto [hits2, misses2] =
      run_oracle(fast, ref, rng, tag_space, 0, 40000);
  EXPECT_GT(hits + hits2, 0u);
  EXPECT_GT(misses + misses2, 0u);
}

TEST_P(UtlbOracle, ReservedTableMatchesMapMirrorModelAtHighTags) {
  // Tags up to 2^28 - 1, so pages up to 2^32 - 1 (the managed-VA bound),
  // on a table reserved for all of them. Tags come from a pool spread over
  // the whole range, both ends and a word boundary included, about twice
  // the ring's size: inserts duplicate live tags, lookups hit and miss,
  // and invalidates fall between.
  const std::uint32_t entries = GetParam();
  constexpr std::uint64_t kTags = std::uint64_t{1} << 28;
  Utlb fast(entries);
  fast.reserve(kTags);
  MapMirrorUtlb ref(entries);
  Rng rng(0xF00D + entries);
  std::vector<std::uint64_t> pool{0, 63, 64, kTags - 2, kTags - 1};
  while (pool.size() < 2ull * entries + 3) {
    pool.push_back(rng.next_below(kTags));
  }
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t duplicates = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t tag = pool[rng.next_below(pool.size())];
    const VirtPage p = tag * kPagesPerBigPage + rng.next_below(kPagesPerBigPage);
    if (rng.next_below(8ull * entries + 50) == 0) {
      fast.invalidate_all();
      ref.invalidate_all();
    } else if (rng.next_below(2) == 0) {
      const bool want = ref.lookup(p);
      ASSERT_EQ(fast.lookup(p), want) << "op " << op << " page " << p;
      (want ? hits : misses) += 1;
    } else {
      duplicates += ref.lookup(p) ? 1 : 0;
      fast.insert(p);
      ref.insert(p);
    }
  }
  for (const std::uint64_t tag : pool) {
    EXPECT_EQ(fast.lookup(tag * kPagesPerBigPage),
              ref.lookup(tag * kPagesPerBigPage))
        << "tag " << tag;
  }
  EXPECT_EQ(fast.invalidations(), ref.invalidations());
  EXPECT_GT(ref.invalidations(), 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_GT(duplicates, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, UtlbOracle,
                         ::testing::Values(1u, 2u, 3u, 64u, 300u));

}  // namespace
}  // namespace uvmsim
