#include "uvm/access_counter_eviction.h"
#include "uvm/eviction_lru.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

namespace uvmsim {
namespace {

auto any = [](VaBlockId) { return true; };

std::uint64_t lcg_next(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 11;
}

TEST(LruEviction, VictimIsLeastRecentlyAllocated) {
  LruEviction lru;
  lru.on_block_allocated(1);
  lru.on_block_allocated(2);
  lru.on_block_allocated(3);
  auto v = lru.pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 1u);
}

TEST(LruEviction, TouchPromotes) {
  LruEviction lru;
  lru.on_block_allocated(1);
  lru.on_block_allocated(2);
  lru.on_block_touched(1);  // 1 becomes MRU
  auto v = lru.pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 2u);
}

TEST(LruEviction, TouchOfUntrackedIsNoop) {
  LruEviction lru;
  lru.on_block_allocated(1);
  lru.on_block_touched(99);
  EXPECT_EQ(lru.tracked(), 1u);
}

TEST(LruEviction, EvictRemoves) {
  LruEviction lru;
  lru.on_block_allocated(1);
  lru.on_block_allocated(2);
  lru.on_block_evicted(1);
  EXPECT_EQ(lru.tracked(), 1u);
  auto v = lru.pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 2u);
}

TEST(LruEviction, EligibilityFilterSkips) {
  LruEviction lru;
  lru.on_block_allocated(1);
  lru.on_block_allocated(2);
  auto v = lru.pick_victim([](VaBlockId k) { return k != 1; });
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 2u);
}

TEST(LruEviction, NoEligibleVictim) {
  LruEviction lru;
  lru.on_block_allocated(1);
  EXPECT_FALSE(lru.pick_victim([](VaBlockId) { return false; }).has_value());
}

TEST(LruEviction, EmptyListNoVictim) {
  LruEviction lru;
  EXPECT_FALSE(lru.pick_victim(any).has_value());
}

TEST(LruEviction, ReallocationActsAsTouch) {
  LruEviction lru;
  lru.on_block_allocated(1);
  lru.on_block_allocated(2);
  lru.on_block_allocated(1);  // re-alloc: promote, no duplicate
  EXPECT_EQ(lru.tracked(), 2u);
  auto v = lru.pick_victim(any);
  EXPECT_EQ(*v, 2u);
}

TEST(LruEviction, OrderSnapshot) {
  LruEviction lru;
  lru.on_block_allocated(1);
  lru.on_block_allocated(2);
  lru.on_block_touched(1);
  auto order = lru.order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);  // MRU
  EXPECT_EQ(order[1], 2u);  // LRU
}

// The paper's §VI-A pathology: fully-resident (hot) blocks never fault
// again, so the stock LRU lets them sink to the tail.
TEST(LruEviction, HotResidentDataDecaysWithoutFaults) {
  LruEviction lru;
  lru.on_block_allocated(1);  // hot block, fully resident, no faults
  for (VaBlockId b = 2; b <= 5; ++b) {
    lru.on_block_allocated(b);
    lru.on_block_touched(b);
  }
  auto v = lru.pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 1u);  // the hot block is the victim
}

TEST(LruEviction, ClassifiedPickMatchesTwoPassReference) {
  // Property: the single classified scan must pick exactly what the old
  // two-pass search (Preferred-only, then anything non-Ineligible) picked.
  std::uint64_t s = 0x5EED;
  for (int iter = 0; iter < 100; ++iter) {
    LruEviction lru;
    std::unordered_map<std::uint64_t, VictimEligibility> cls;
    int n = 1 + static_cast<int>(lcg_next(s) % 12);
    for (int i = 0; i < n; ++i) {
      const auto k = static_cast<VaBlockId>(i + 1);
      lru.on_block_allocated(k);
      cls[k] = static_cast<VictimEligibility>(lcg_next(s) % 3);
    }
    auto classify = [&](VaBlockId k) { return cls.at(k); };
    std::optional<VaBlockId> expect;
    auto order = lru.order();  // MRU first; scan is from the LRU end
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      if (classify(*it) == VictimEligibility::Preferred) {
        expect = *it;
        break;
      }
    }
    if (!expect) {
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        if (classify(*it) != VictimEligibility::Ineligible) {
          expect = *it;
          break;
        }
      }
    }
    EXPECT_EQ(lru.pick_victim_classified(classify), expect) << "iter " << iter;
  }
}

TEST(LruEviction, RoundParkingKeepsEvictionOrderUnchanged) {
  // Drain victims with rounds+parking on one instance and with the plain
  // two-pass scan on a twin: the victim sequence and the surviving order
  // must be identical.
  std::uint64_t s = 0xABCD;
  for (int iter = 0; iter < 30; ++iter) {
    LruEviction fast, naive;
    std::unordered_map<std::uint64_t, VictimEligibility> cls;
    const int n = 16;
    for (int i = 0; i < n; ++i) {
      const auto k = static_cast<VaBlockId>(i + 1);
      fast.on_block_allocated(k);
      naive.on_block_allocated(k);
      cls[k] = static_cast<VictimEligibility>(lcg_next(s) % 3);
    }
    auto classify = [&](VaBlockId k) { return cls.at(k); };
    auto naive_pick = [&] {
      auto v = naive.pick_victim([&](VaBlockId k) {
        return classify(k) == VictimEligibility::Preferred;
      });
      if (!v) {
        v = naive.pick_victim([&](VaBlockId k) {
          return classify(k) != VictimEligibility::Ineligible;
        });
      }
      return v;
    };
    fast.begin_victim_round();
    for (;;) {
      auto a = fast.pick_victim_classified(classify);
      auto b = naive_pick();
      EXPECT_EQ(a, b) << "iter " << iter;
      if (!a || !b) break;
      fast.on_block_evicted(*a);
      naive.on_block_evicted(*b);
    }
    fast.end_victim_round();
    EXPECT_EQ(fast.order(), naive.order()) << "iter " << iter;
  }
}

TEST(LruEviction, EarlyRoundEndAfterPreferredKeepsOrder) {
  // Regression: with MRU order [Preferred, Ineligible, Eligible] the scan
  // parks the Ineligible block and returns the Preferred one while the
  // Eligible block is still in place. Ending the round right after that
  // single eviction must leave the survivors in their original order
  // (Ineligible still more MRU than Eligible).
  LruEviction lru;
  lru.on_block_allocated(3);  // Eligible — LRU
  lru.on_block_allocated(2);  // Ineligible
  lru.on_block_allocated(1);  // Preferred — MRU
  auto classify = [](VaBlockId k) {
    switch (k) {
      case 1: return VictimEligibility::Preferred;
      case 2: return VictimEligibility::Ineligible;
      default: return VictimEligibility::Eligible;
    }
  };
  lru.begin_victim_round();
  auto v = lru.pick_victim_classified(classify);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 1u);
  lru.on_block_evicted(*v);
  lru.end_victim_round();
  auto order = lru.order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 3u);
  // The next eviction therefore takes the Eligible block, not block 2.
  auto next = lru.pick_victim_classified(classify);
  ASSERT_TRUE(next);
  EXPECT_EQ(*next, 3u);
}

TEST(LruEviction, RoundEndedMidDrainKeepsEvictionOrderUnchanged) {
  // Twin of RoundParkingKeepsEvictionOrderUnchanged that wraps every single
  // pick in its own round instead of draining first — the pattern that
  // exposed the parked-splice order corruption.
  std::uint64_t s = 0xF00D;
  for (int iter = 0; iter < 30; ++iter) {
    LruEviction fast, naive;
    std::unordered_map<std::uint64_t, VictimEligibility> cls;
    const int n = 16;
    for (int i = 0; i < n; ++i) {
      const auto k = static_cast<VaBlockId>(i + 1);
      fast.on_block_allocated(k);
      naive.on_block_allocated(k);
      cls[k] = static_cast<VictimEligibility>(lcg_next(s) % 3);
    }
    auto classify = [&](VaBlockId k) { return cls.at(k); };
    auto naive_pick = [&] {
      auto v = naive.pick_victim([&](VaBlockId k) {
        return classify(k) == VictimEligibility::Preferred;
      });
      if (!v) {
        v = naive.pick_victim([&](VaBlockId k) {
          return classify(k) != VictimEligibility::Ineligible;
        });
      }
      return v;
    };
    for (;;) {
      fast.begin_victim_round();
      auto a = fast.pick_victim_classified(classify);
      fast.end_victim_round();
      auto b = naive_pick();
      EXPECT_EQ(a, b) << "iter " << iter;
      if (!a || !b) break;
      fast.on_block_evicted(*a);
      naive.on_block_evicted(*b);
      EXPECT_EQ(fast.order(), naive.order()) << "iter " << iter;
    }
  }
}

TEST(LruEviction, EndRoundRestoresExactOrder) {
  LruEviction lru;
  for (VaBlockId b = 1; b <= 5; ++b) lru.on_block_allocated(b);
  auto before = lru.order();
  lru.begin_victim_round();
  EXPECT_FALSE(
      lru.pick_victim_classified([](VaBlockId) {
           return VictimEligibility::Ineligible;
         }).has_value());
  // Parked blocks still appear at their logical positions mid-round.
  EXPECT_EQ(lru.order(), before);
  lru.end_victim_round();
  EXPECT_EQ(lru.order(), before);
}

TEST(LruEviction, TouchDuringRoundPromotesParkedSlice) {
  LruEviction lru;
  for (VaBlockId b = 1; b <= 3; ++b) lru.on_block_allocated(b);
  // MRU order now 3, 2, 1.
  lru.begin_victim_round();
  auto v = lru.pick_victim_classified([](VaBlockId k) {
    return k == 3 ? VictimEligibility::Preferred
                        : VictimEligibility::Ineligible;
  });
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 3u);  // 1 and 2 were parked on the way
  lru.on_block_touched(1);  // a parked block can still be promoted
  lru.end_victim_round();
  auto order = lru.order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);  // MRU: the touch won
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 2u);
}

TEST(LruEviction, EvictParkedSliceDuringRound) {
  LruEviction lru;
  for (VaBlockId b = 1; b <= 3; ++b) lru.on_block_allocated(b);
  lru.begin_victim_round();
  EXPECT_FALSE(
      lru.pick_victim_classified([](VaBlockId) {
           return VictimEligibility::Ineligible;
         }).has_value());
  lru.on_block_evicted(1);  // parked blocks can still be removed
  lru.end_victim_round();
  EXPECT_EQ(lru.tracked(), 2u);
  auto order = lru.order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 3u);
  EXPECT_EQ(order[1], 2u);
}

TEST(LruEviction, RoundScanSkipsParkedTail) {
  // The perf fix under test: with a long ineligible LRU tail, the second
  // scan of a round must not re-walk it.
  LruEviction lru;
  for (VaBlockId b = 1; b <= 10; ++b) lru.on_block_allocated(b);
  auto classify = [](VaBlockId k) {
    return k >= 9 ? VictimEligibility::Preferred
                        : VictimEligibility::Ineligible;
  };
  lru.begin_victim_round();
  auto v1 = lru.pick_victim_classified(classify);
  ASSERT_TRUE(v1);
  EXPECT_EQ(*v1, 9u);
  EXPECT_EQ(lru.last_scan_length(), 9u);  // walked the 8 ineligible + hit
  lru.on_block_evicted(*v1);
  auto v2 = lru.pick_victim_classified(classify);
  ASSERT_TRUE(v2);
  EXPECT_EQ(*v2, 10u);
  EXPECT_EQ(lru.last_scan_length(), 1u);  // the parked tail was skipped
  lru.end_victim_round();
}

TEST(AccessCounterEviction, NotificationPromotes) {
  AccessCounterEviction ac;
  ac.on_block_allocated(1);
  ac.on_block_allocated(2);
  // Block 1 is hot: access counters report it even though it never faults.
  AccessCounterNotification n;
  n.block = 1;
  n.big_page = 3;
  ac.on_access_notification(n);
  auto v = ac.pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 2u);  // hot block survives
}

TEST(AccessCounterEviction, NotificationForAnyBigPagePromotesItsBlock) {
  // A block is one tracking unit: a notification for its last big page
  // promotes it exactly as one for its first would.
  AccessCounterEviction ac;
  for (VaBlockId b = 1; b <= 3; ++b) ac.on_block_allocated(b);
  AccessCounterNotification n;
  n.block = 1;
  n.big_page = kBigPagesPerBlock - 1;
  ac.on_access_notification(n);
  EXPECT_EQ(ac.order(), (std::vector<VaBlockId>{1, 3, 2}));
}

TEST(AccessCounterEviction, Name) {
  AccessCounterEviction ac;
  EXPECT_STREQ(ac.name(), "access_counter");
  LruEviction lru;
  EXPECT_STREQ(lru.name(), "lru");
}

}  // namespace
}  // namespace uvmsim
