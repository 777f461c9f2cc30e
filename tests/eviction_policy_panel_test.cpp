// Policy-panel conformance suite (PR 10): the same behavioural contract run
// against all three eviction policies (LRU, CLOCK, 2Q), plus the
// EvictionPolicy base-class regressions the panel surfaced — the default
// two-pass pick_victim_classified losing the first pass's scan count, and
// SliceKey::packed()'s overflow guard — and the per-policy semantics that
// distinguish the panel members (second chance, probation/protection).
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

#include "core/errors.h"

namespace uvmsim {
namespace {

auto any = [](SliceKey) { return true; };

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
  for (VaBlockId b = 1; b <= 5; ++b) p->on_slice_allocated({b, 0});
  EXPECT_EQ(p->tracked(), 5u);
  p->on_slice_evicted({2, 0});
  p->on_slice_evicted({4, 0});
  EXPECT_EQ(p->tracked(), 3u);
  // Touching an untracked slice must not resurrect or create state.
  p->on_slice_touched({2, 0});
  p->on_slice_touched({99, 0});
  EXPECT_EQ(p->tracked(), 3u);
}

TEST_P(PolicyPanel, EmptyPolicyHasNoVictim) {
  auto p = make();
  EXPECT_FALSE(p->pick_victim(any).has_value());
  EXPECT_FALSE(p->pick_victim_classified([](SliceKey) {
                  return VictimEligibility::Preferred;
                }).has_value());
}

TEST_P(PolicyPanel, VictimIsAlwaysTrackedAndEligible) {
  auto p = make();
  for (VaBlockId b = 0; b < 10; ++b) p->on_slice_allocated({b, 0});
  auto even = [](SliceKey k) { return k.block % 2 == 0; };
  for (int i = 0; i < 5; ++i) {
    auto v = p->pick_victim(even);
    ASSERT_TRUE(v) << "pick " << i;
    EXPECT_EQ(v->block % 2, 0u);
    p->on_slice_evicted(*v);
  }
  // Only odd blocks remain: the even filter has nothing left.
  EXPECT_FALSE(p->pick_victim(even).has_value());
  EXPECT_EQ(p->tracked(), 5u);
}

TEST_P(PolicyPanel, DrainVisitsEverySliceExactlyOnce) {
  auto p = make();
  std::set<std::uint64_t> expect;
  for (VaBlockId b = 0; b < 16; ++b) {
    p->on_slice_allocated({b, 0});
    expect.insert(SliceKey{b, 0}.packed());
  }
  std::set<std::uint64_t> seen;
  while (auto v = p->pick_victim(any)) {
    EXPECT_TRUE(seen.insert(v->packed()).second)
        << "victim repeated: block " << v->block;
    p->on_slice_evicted(*v);
  }
  EXPECT_EQ(seen, expect);
  EXPECT_EQ(p->tracked(), 0u);
}

TEST_P(PolicyPanel, SlicesOfOneBlockAreDistinct) {
  auto p = make();
  p->on_slice_allocated({7, 0});
  p->on_slice_allocated({7, 3});
  EXPECT_EQ(p->tracked(), 2u);
  p->on_slice_evicted({7, 0});
  EXPECT_EQ(p->tracked(), 1u);
  auto v = p->pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_EQ(v->slice, 3u);
}

// The classified pick must be semantically a two-pass pick (Preferred first,
// then anything non-Ineligible), whatever shortcut the policy takes. Drive
// two instances of the same policy through one randomized notification
// stream and compare pick-by-pick against the explicit two-pass reference.
TEST_P(PolicyPanel, ClassifiedPickMatchesTwoPassReference) {
  auto fast = make();
  auto ref = make();
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  std::unordered_map<std::uint64_t, VictimEligibility> cls;
  for (int iter = 0; iter < 200; ++iter) {
    const SliceKey k{lcg_next(s) % 24, 0};
    switch (lcg_next(s) % 3) {
      case 0:
        fast->on_slice_allocated(k);
        ref->on_slice_allocated(k);
        break;
      case 1:
        fast->on_slice_touched(k);
        ref->on_slice_touched(k);
        break;
      default: {
        cls.clear();
        std::uint64_t cs = s;
        auto classify = [&](SliceKey key) {
          auto [it, fresh] = cls.try_emplace(key.packed());
          if (fresh) {
            std::uint64_t h = cs ^ key.packed();
            it->second = static_cast<VictimEligibility>(lcg_next(h) % 3);
          }
          return it->second;
        };
        auto got = fast->pick_victim_classified(classify);
        auto want = ref->pick_victim([&](SliceKey key) {
          return classify(key) == VictimEligibility::Preferred;
        });
        if (!want) {
          want = ref->pick_victim([&](SliceKey key) {
            return classify(key) != VictimEligibility::Ineligible;
          });
        }
        ASSERT_EQ(got.has_value(), want.has_value()) << "iter " << iter;
        if (got) {
          EXPECT_EQ(got->packed(), want->packed()) << "iter " << iter;
          fast->on_slice_evicted(*got);
          ref->on_slice_evicted(*want);
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
    const SliceKey k{lcg_next(s) % 12, 0};
    if (lcg_next(s) % 2 == 0) {
      bracketed->on_slice_allocated(k);
      plain->on_slice_allocated(k);
    } else {
      bracketed->on_slice_touched(k);
      plain->on_slice_touched(k);
    }
  }
  auto classify = [](SliceKey k) {
    if (k.block % 3 == 0) return VictimEligibility::Ineligible;
    return k.block % 3 == 1 ? VictimEligibility::Preferred
                            : VictimEligibility::Eligible;
  };
  bracketed->begin_victim_round();
  for (;;) {
    auto a = bracketed->pick_victim_classified(classify);
    auto b = plain->pick_victim_classified(classify);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    EXPECT_EQ(a->packed(), b->packed());
    bracketed->on_slice_evicted(*a);
    plain->on_slice_evicted(*b);
  }
  bracketed->end_victim_round();
  EXPECT_EQ(bracketed->tracked(), plain->tracked());
}

TEST_P(PolicyPanel, ScanLengthIsRecordedByEveryPick) {
  auto p = make();
  for (VaBlockId b = 0; b < 8; ++b) p->on_slice_allocated({b, 0});
  auto v = p->pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_GE(p->last_scan_length(), 1u);
  auto c = p->pick_victim_classified(
      [](SliceKey) { return VictimEligibility::Eligible; });
  ASSERT_TRUE(c);
  EXPECT_GE(p->last_scan_length(), 1u);
}

// --- base-class regressions --------------------------------------------

/// Minimal policy that relies on EvictionPolicy's DEFAULT two-pass
/// pick_victim_classified — the configuration the scan-count bug lived in.
class StubPolicy final : public EvictionPolicy {
 public:
  void on_slice_allocated(SliceKey k) override { slices_.push_back(k); }
  void on_slice_touched(SliceKey) override {}
  void on_slice_evicted(SliceKey k) override {
    std::erase_if(slices_, [&](SliceKey s) { return s == k; });
  }
  std::optional<SliceKey> pick_victim(
      const std::function<bool(SliceKey)>& eligible) override {
    last_scan_len_ = 0;
    for (SliceKey k : slices_) {
      ++last_scan_len_;
      if (eligible(k)) return k;
    }
    return std::nullopt;
  }
  [[nodiscard]] const char* name() const override { return "stub"; }
  [[nodiscard]] std::size_t tracked() const override { return slices_.size(); }

 private:
  std::vector<SliceKey> slices_;
};

// Regression (PR-10 satellite): the default pick_victim_classified used to
// report only the fallback pass's scan count, hiding the full first pass
// from instrumentation whenever no Preferred slice existed.
TEST(EvictionPolicyDefault, TwoPassScanCountSumsBothPasses) {
  StubPolicy p;
  for (VaBlockId b = 0; b < 4; ++b) p.on_slice_allocated({b, 0});
  // No Preferred slice anywhere: pass 1 scans all 4 and fails, pass 2
  // accepts the first slice after examining it. Total work = 5.
  auto v = p.pick_victim_classified(
      [](SliceKey) { return VictimEligibility::Eligible; });
  ASSERT_TRUE(v);
  EXPECT_EQ(v->block, 0u);
  EXPECT_EQ(p.last_scan_length(), 5u);
}

TEST(EvictionPolicyDefault, PreferredHitReportsSinglePassScan) {
  StubPolicy p;
  for (VaBlockId b = 0; b < 4; ++b) p.on_slice_allocated({b, 0});
  auto v = p.pick_victim_classified([](SliceKey k) {
    return k.block == 2 ? VictimEligibility::Preferred
                        : VictimEligibility::Eligible;
  });
  ASSERT_TRUE(v);
  EXPECT_EQ(v->block, 2u);
  EXPECT_EQ(p.last_scan_length(), 3u);  // one pass, stopped at block 2
}

// Regression (PR-10 satellite): the overflow guard must hold in Release
// builds too — the former assert() compiled out and let block IDs >= 2^32
// silently alias the key's slice half.
TEST(SliceKeyGuard, PackedThrowsWhenBlockExceedsUpperHalf) {
  EXPECT_NO_THROW(((void)SliceKey{0xFFFF'FFFFull, 0}.packed()));
  EXPECT_THROW(((void)SliceKey{std::uint64_t{1} << 32, 0}.packed()),
               SimulationError);
  EXPECT_THROW(((void)SliceKey{~std::uint64_t{0}, 0}.packed()),
               SimulationError);
}

// --- per-policy semantics the panel is built on -------------------------

TEST(ClockEviction, TouchGrantsSecondChance) {
  ClockEviction clk;
  clk.on_slice_allocated({1, 0});
  clk.on_slice_allocated({2, 0});
  clk.on_slice_touched({1, 0});  // ref bit set: survives one sweep
  auto v = clk.pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_EQ(v->block, 2u);
  // The sweep cleared block 1's ref bit on the way: it is next.
  clk.on_slice_evicted(*v);
  auto v2 = clk.pick_victim(any);
  ASSERT_TRUE(v2);
  EXPECT_EQ(v2->block, 1u);
}

TEST(ClockEviction, UntouchedSpeculativeSliceFallsFirst) {
  // The lifecycle distinction the driver contract exists for: an
  // allocated-never-touched (speculative) slice has ref=0 and loses to
  // demanded data even if it arrived later.
  ClockEviction clk;
  clk.on_slice_allocated({1, 0});
  clk.on_slice_touched({1, 0});
  clk.on_slice_allocated({2, 0});  // speculative: no touch
  auto v = clk.pick_victim(any);
  ASSERT_TRUE(v);
  EXPECT_EQ(v->block, 2u);
}

TEST(TwoQEviction, ProbationLeavesBeforeProtected) {
  TwoQEviction q;
  q.on_slice_allocated({1, 0});
  q.on_slice_allocated({2, 0});
  q.on_slice_allocated({3, 0});
  q.on_slice_touched({2, 0});  // promoted to the protected segment
  std::vector<VaBlockId> order;
  while (auto v = q.pick_victim(any)) {
    order.push_back(v->block);
    q.on_slice_evicted(*v);
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.back(), 2u);  // the touched slice outlives all probation
}

TEST(TwoQEviction, ProtectedCapDemotesBackToProbation) {
  TwoQEviction q(/*protected_percent=*/25);
  for (VaBlockId b = 1; b <= 8; ++b) q.on_slice_allocated({b, 0});
  for (VaBlockId b = 1; b <= 8; ++b) q.on_slice_touched({b, 0});
  // 25% of 8 tracked slices: at most 2 stay protected, the rest were
  // demoted back to probation in touch order.
  EXPECT_LE(q.protected_count(), 2u);
  EXPECT_EQ(q.tracked(), 8u);
}

}  // namespace
}  // namespace uvmsim
