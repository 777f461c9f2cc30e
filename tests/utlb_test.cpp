#include "gpu/utlb.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
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

class UtlbOracle : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(UtlbOracle, MatchesMapMirrorModel) {
  const std::uint32_t entries = GetParam();
  Utlb fast(entries);
  MapMirrorUtlb ref(entries);
  Rng rng(0xC0FFEE + entries);
  // Tags drawn from about twice the ring size, so lookups both hit and
  // miss, inserts both duplicate live tags and evict, and the ring wraps
  // several times between invalidates.
  const std::uint64_t tag_space = 2ull * entries + 3;
  const std::uint64_t invalidate_odds = 8ull * entries + 50;
  constexpr int kOps = 20000;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (int op = 0; op < kOps; ++op) {
    const VirtPage p = rng.next_below(tag_space * kPagesPerBigPage);
    if (rng.next_below(invalidate_odds) == 0) {
      fast.invalidate_all();
      ref.invalidate_all();
    } else if (rng.next_below(2) == 0) {
      const bool want = ref.lookup(p);
      ASSERT_EQ(fast.lookup(p), want) << "op " << op << " page " << p;
      (want ? hits : misses) += 1;
    } else {
      fast.insert(p);
      ref.insert(p);
    }
  }
  EXPECT_EQ(fast.invalidations(), ref.invalidations());
  EXPECT_GT(ref.invalidations(), 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, UtlbOracle,
                         ::testing::Values(1u, 2u, 3u, 64u, 300u));

}  // namespace
}  // namespace uvmsim
