// Policy-panel conformance suite (PR 10): the same behavioural contract run
// against all three eviction policies (LRU, CLOCK, 2Q), plus the
// EvictionPolicy base-class regression the panel surfaced — the default
// two-pass pick_victim_classified losing the first pass's scan count — and
// the per-policy semantics that distinguish the panel members (second
// chance, probation/protection).
#include "uvm/eviction_2q.h"
#include "uvm/eviction_clock.h"
#include "uvm/eviction_lru.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace uvmsim {
namespace {

auto any = [](VaBlockId) { return true; };

std::uint64_t lcg_next(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 11;
}

struct PolicyParam {
  const char* name;
  std::unique_ptr<EvictionPolicy> (*make)();
};

// Print the policy name rather than the struct's bytes. The bytes are two
// pointers that change with every process under ASLR, and ctest's
// discovered test names embed the printed parameter.
void PrintTo(const PolicyParam& p, std::ostream* os) { *os << p.name; }

std::unique_ptr<EvictionPolicy> make_lru() {
  return std::make_unique<LruEviction>();
}
std::unique_ptr<EvictionPolicy> make_clock() {
  return std::make_unique<ClockEviction>();
}
std::unique_ptr<EvictionPolicy> make_2q() {
  return std::make_unique<TwoQEviction>();
}

class PolicyPanel : public ::testing::TestWithParam<PolicyParam> {
 protected:
  [[nodiscard]] std::unique_ptr<EvictionPolicy> make() const {
    return GetParam().make();
  }
};

INSTANTIATE_TEST_SUITE_P(All, PolicyPanel,
                         ::testing::Values(PolicyParam{"lru", &make_lru},
                                           PolicyParam{"clock", &make_clock},
                                           PolicyParam{"2q", &make_2q}),
                         [](const auto& pinfo) {
                           return std::string(pinfo.param.name) == "2q"
                                      ? "TwoQ"
                                      : std::string(pinfo.param.name);
                         });

TEST_P(PolicyPanel, NameMatches) {
  EXPECT_STREQ(make()->name(), GetParam().name);
}

TEST_P(PolicyPanel, TrackedCountFollowsLifecycle) {
  auto p = make();
  EXPECT_EQ(p->tracked(), 0u);
  for (VaBlockId b = 1; b <= 5; ++b) p->on_block_allocated(b);
  EXPECT_EQ(p->tracked(), 5u);
  p->on_block_evicted(2);
  p->on_block_evicted(4);
  EXPECT_EQ(p->tracked(), 3u);
  // Touching an untracked block must not resurrect or create state.
  p->on_block_touched(2);
  p->on_block_touched(99);
  EXPECT_EQ(p->tracked(), 3u);
}

TEST_P(PolicyPanel, EmptyPolicyHasNoVictim) {
  auto p = make();
  EXPECT_FALSE(p->pick_victim(any).has_value());
  EXPECT_FALSE(p->pick_victim_classified([](VaBlockId) {
                  return VictimEligibility::Preferred;
                }).has_value());
}

TEST_P(PolicyPanel, VictimIsAlwaysTrackedAndEligible) {
  auto p = make();
  for (VaBlockId b = 0; b < 10; ++b) p->on_block_allocated(b);
  auto even = [](VaBlockId b) { return b % 2 == 0; };
  for (int i = 0; i < 5; ++i) {
    auto v = p->pick_victim(even);
    ASSERT_TRUE(v) << "pick " << i;
    EXPECT_EQ(*v % 2, 0u);
    p->on_block_evicted(*v);
  }
  // Only odd blocks remain: the even filter has nothing left.
  EXPECT_FALSE(p->pick_victim(even).has_value());
  EXPECT_EQ(p->tracked(), 5u);
}

TEST_P(PolicyPanel, DrainVisitsEverySliceExactlyOnce) {
  auto p = make();
  std::set<VaBlockId> expect;
  for (VaBlockId b = 0; b < 16; ++b) {
    p->on_block_allocated(b);
    expect.insert(b);
  }
  std::set<VaBlockId> seen;
  while (auto v = p->pick_victim(any)) {
    EXPECT_TRUE(seen.insert(*v).second) << "victim repeated: block " << *v;
    p->on_block_evicted(*v);
  }
  EXPECT_EQ(seen, expect);
  EXPECT_EQ(p->tracked(), 0u);
}

// A block is tracked once however often it is (re)allocated, and one
// eviction forgets it; a block evicted and allocated again is tracked anew.
TEST_P(PolicyPanel, ReallocationDoesNotDuplicate) {
  auto p = make();
  p->on_block_allocated(7);
  p->on_block_allocated(7);
  p->on_block_allocated(3);
  EXPECT_EQ(p->tracked(), 2u);
  p->on_block_evicted(7);
  EXPECT_EQ(p->tracked(), 1u);
  auto v = p->pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 3u);
  p->on_block_allocated(7);
  EXPECT_EQ(p->tracked(), 2u);
}

// The classified pick must be semantically a two-pass pick (Preferred first,
// then anything non-Ineligible), whatever shortcut the policy takes. Drive
// two instances of the same policy through one randomized notification
// stream and compare pick-by-pick against the explicit two-pass reference.
TEST_P(PolicyPanel, ClassifiedPickMatchesTwoPassReference) {
  auto fast = make();
  auto ref = make();
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  std::unordered_map<VaBlockId, VictimEligibility> cls;
  for (int iter = 0; iter < 200; ++iter) {
    const VaBlockId k = lcg_next(s) % 24;
    switch (lcg_next(s) % 3) {
      case 0:
        fast->on_block_allocated(k);
        ref->on_block_allocated(k);
        break;
      case 1:
        fast->on_block_touched(k);
        ref->on_block_touched(k);
        break;
      default: {
        cls.clear();
        std::uint64_t cs = s;
        auto classify = [&](VaBlockId key) {
          auto [it, fresh] = cls.try_emplace(key);
          if (fresh) {
            std::uint64_t h = cs ^ key;
            it->second = static_cast<VictimEligibility>(lcg_next(h) % 3);
          }
          return it->second;
        };
        auto got = fast->pick_victim_classified(classify);
        auto want = ref->pick_victim([&](VaBlockId key) {
          return classify(key) == VictimEligibility::Preferred;
        });
        if (!want) {
          want = ref->pick_victim([&](VaBlockId key) {
            return classify(key) != VictimEligibility::Ineligible;
          });
        }
        ASSERT_EQ(got, want) << "iter " << iter;
        if (got) {
          fast->on_block_evicted(*got);
          ref->on_block_evicted(*want);
        }
        break;
      }
    }
  }
}

// Victim-round brackets are an optimization handle, never a semantics
// change: with classification stable across a round, a bracketed drain must
// evict exactly the same sequence as an unbracketed twin.
TEST_P(PolicyPanel, VictimRoundDoesNotChangeEvictionOrder) {
  auto bracketed = make();
  auto plain = make();
  std::uint64_t s = 42;
  for (int i = 0; i < 40; ++i) {
    const VaBlockId k = lcg_next(s) % 12;
    if (lcg_next(s) % 2 == 0) {
      bracketed->on_block_allocated(k);
      plain->on_block_allocated(k);
    } else {
      bracketed->on_block_touched(k);
      plain->on_block_touched(k);
    }
  }
  auto classify = [](VaBlockId k) {
    if (k % 3 == 0) return VictimEligibility::Ineligible;
    return k % 3 == 1 ? VictimEligibility::Preferred
                      : VictimEligibility::Eligible;
  };
  bracketed->begin_victim_round();
  for (;;) {
    auto a = bracketed->pick_victim_classified(classify);
    auto b = plain->pick_victim_classified(classify);
    ASSERT_EQ(a, b);
    if (!a) break;
    bracketed->on_block_evicted(*a);
    plain->on_block_evicted(*b);
  }
  bracketed->end_victim_round();
  EXPECT_EQ(bracketed->tracked(), plain->tracked());
}

TEST_P(PolicyPanel, ScanLengthIsRecordedByEveryPick) {
  auto p = make();
  for (VaBlockId b = 0; b < 8; ++b) p->on_block_allocated(b);
  auto v = p->pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_GE(p->last_scan_length(), 1u);
  auto c = p->pick_victim_classified(
      [](VaBlockId) { return VictimEligibility::Eligible; });
  ASSERT_TRUE(c);
  EXPECT_GE(p->last_scan_length(), 1u);
}

// --- base-class regressions --------------------------------------------

/// Minimal policy that relies on EvictionPolicy's DEFAULT two-pass
/// pick_victim_classified — the configuration the scan-count bug lived in.
class StubPolicy final : public EvictionPolicy {
 public:
  void on_block_allocated(VaBlockId b) override { blocks_.push_back(b); }
  void on_block_touched(VaBlockId) override {}
  void on_block_evicted(VaBlockId b) override { std::erase(blocks_, b); }
  std::optional<VaBlockId> pick_victim(
      const std::function<bool(VaBlockId)>& eligible) override {
    last_scan_len_ = 0;
    for (VaBlockId b : blocks_) {
      ++last_scan_len_;
      if (eligible(b)) return b;
    }
    return std::nullopt;
  }
  [[nodiscard]] const char* name() const override { return "stub"; }
  [[nodiscard]] std::size_t tracked() const override { return blocks_.size(); }

 private:
  std::vector<VaBlockId> blocks_;
};

// Regression (PR-10 satellite): the default pick_victim_classified used to
// report only the fallback pass's scan count, hiding the full first pass
// from instrumentation whenever no Preferred block existed.
TEST(EvictionPolicyDefault, TwoPassScanCountSumsBothPasses) {
  StubPolicy p;
  for (VaBlockId b = 0; b < 4; ++b) p.on_block_allocated(b);
  // No Preferred block anywhere: pass 1 scans all 4 and fails, pass 2
  // accepts the first block after examining it. Total work = 5.
  auto v = p.pick_victim_classified(
      [](VaBlockId) { return VictimEligibility::Eligible; });
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 0u);
  EXPECT_EQ(p.last_scan_length(), 5u);
}

TEST(EvictionPolicyDefault, PreferredHitReportsSinglePassScan) {
  StubPolicy p;
  for (VaBlockId b = 0; b < 4; ++b) p.on_block_allocated(b);
  auto v = p.pick_victim_classified([](VaBlockId b) {
    return b == 2 ? VictimEligibility::Preferred : VictimEligibility::Eligible;
  });
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 2u);
  EXPECT_EQ(p.last_scan_length(), 3u);  // one pass, stopped at block 2
}

// --- per-policy semantics the panel is built on -------------------------

TEST(ClockEviction, TouchGrantsSecondChance) {
  ClockEviction clk;
  clk.on_block_allocated(1);
  clk.on_block_allocated(2);
  clk.on_block_touched(1);  // ref bit set: survives one sweep
  auto v = clk.pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 2u);
  // The sweep cleared block 1's ref bit on the way: it is next.
  clk.on_block_evicted(*v);
  auto v2 = clk.pick_victim(any);
  ASSERT_TRUE(v2);
  EXPECT_EQ(*v2, 1u);
}

TEST(ClockEviction, UntouchedSpeculativeSliceFallsFirst) {
  // The lifecycle distinction the driver contract exists for: an
  // allocated-never-touched (speculative) block has ref=0 and loses to
  // demanded data even if it arrived later.
  ClockEviction clk;
  clk.on_block_allocated(1);
  clk.on_block_touched(1);
  clk.on_block_allocated(2);  // speculative: no touch
  auto v = clk.pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 2u);
}

TEST(ClockEviction, NewBlocksJoinBehindTheHand) {
  // A fresh block is examined last in the current sweep, and the sweep
  // resumes past each victim, wrapping around the ring.
  ClockEviction clk;
  for (VaBlockId b = 1; b <= 3; ++b) clk.on_block_allocated(b);
  auto v = clk.pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 1u);  // the hand now rests on block 2
  clk.on_block_evicted(*v);
  clk.on_block_allocated(4);  // joins between 3 and 2, after the hand
  std::vector<VaBlockId> order;
  while (auto w = clk.pick_victim(any)) {
    order.push_back(*w);
    clk.on_block_evicted(*w);
  }
  EXPECT_EQ(order, (std::vector<VaBlockId>{2, 3, 4}));
}

TEST(TwoQEviction, ProbationLeavesBeforeProtected) {
  TwoQEviction q;
  q.on_block_allocated(1);
  q.on_block_allocated(2);
  q.on_block_allocated(3);
  q.on_block_touched(2);  // promoted to the protected segment
  std::vector<VaBlockId> order;
  while (auto v = q.pick_victim(any)) {
    order.push_back(*v);
    q.on_block_evicted(*v);
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.back(), 2u);  // the touched block outlives all probation
}

TEST(TwoQEviction, ProtectedCapDemotesBackToProbation) {
  TwoQEviction q;
  for (VaBlockId b = 1; b <= 8; ++b) q.on_block_allocated(b);
  for (VaBlockId b = 1; b <= 8; ++b) q.on_block_touched(b);
  // Half of 8 tracked blocks stay protected: the last four touched. The
  // first four were demoted back to probation in touch order, so they
  // leave first, most recently demoted last.
  EXPECT_EQ(q.protected_count(), 4u);
  EXPECT_EQ(q.tracked(), 8u);
  std::vector<VaBlockId> order;
  while (auto v = q.pick_victim(any)) {
    order.push_back(*v);
    q.on_block_evicted(*v);
  }
  EXPECT_EQ(order, (std::vector<VaBlockId>{1, 2, 3, 4, 5, 6, 7, 8}));
}

}  // namespace
}  // namespace uvmsim
