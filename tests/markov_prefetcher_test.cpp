// Markov-prefetcher unit and property tests (PR 10): table semantics,
// config validation, the determinism contract (same trace => same
// predictions), and the notification goldens that pin, for the
// eviction-policy panel, the driver's allocate-without-touch contract for
// speculation and both backends' allocate-then-touch order for demand.
#include "uvm/markov_prefetcher.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/errors.h"
#include "core/simulator.h"
#include "uvm/driver.h"
#include "uvm/eviction_lru.h"

namespace uvmsim {
namespace {

MarkovPrefetchConfig small_cfg() {
  MarkovPrefetchConfig cfg;
  cfg.table_entries = 64;
  cfg.confidence_max = 7;
  cfg.confidence_emit = 3;
  cfg.degree = 2;
  return cfg;
}

TEST(MarkovPredictor, LearnsConstantStrideAfterThreshold) {
  MarkovPrefetcher m(small_cfg());
  std::array<VaBlockId, MarkovPrefetcher::kMaxDegree> out{};
  // Stride +2: 0, 2, 4, ... Confidence for (+2 -> +2) reaches the emit
  // threshold (3) only after the transition is confirmed three times.
  for (VaBlockId b : {0u, 2u, 4u, 6u}) {
    m.observe(b);
    EXPECT_EQ(m.predict(b, out), 0u) << "premature emission at block " << b;
  }
  m.observe(8);  // third confirmation
  ASSERT_EQ(m.predict(8, out), 2u);  // degree 2: chain two deltas
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(out[1], 12u);
}

TEST(MarkovPredictor, RepeatsOfCurrentBlockAreIgnored) {
  MarkovPrefetcher m(small_cfg());
  for (VaBlockId b : {0u, 0u, 2u, 2u, 4u, 4u, 6u, 6u, 8u}) m.observe(b);
  // Delta-0 repeats neither train nor disturb the +2 chain.
  std::array<VaBlockId, MarkovPrefetcher::kMaxDegree> out{};
  ASSERT_EQ(m.predict(8, out), 2u);
  EXPECT_EQ(out[0], 10u);
}

TEST(MarkovPredictor, MissesDampConfidenceBeforeRetraining) {
  MarkovPrefetcher m(small_cfg());
  std::array<VaBlockId, MarkovPrefetcher::kMaxDegree> out{};
  for (VaBlockId b : {0u, 2u, 4u, 6u, 8u}) m.observe(b);  // (+2 -> +2) conf 3
  ASSERT_GT(m.predict(8, out), 0u);
  m.observe(9);   // miss: damps (+2 -> +2) to conf 2, does not retrain it
  m.observe(11);  // context is +2 again...
  EXPECT_EQ(m.predict(11, out), 0u);  // ...but confidence sits below the gate
  m.observe(13);  // one confirmation restores the damped stride
  ASSERT_EQ(m.predict(13, out), 2u);
  EXPECT_EQ(out[0], 15u);
}

TEST(MarkovPredictor, NegativeStrideStopsAtBlockZero) {
  MarkovPrefetcher m(small_cfg());
  for (VaBlockId b : {20u, 16u, 12u, 8u, 4u}) m.observe(b);  // stride -4
  std::array<VaBlockId, MarkovPrefetcher::kMaxDegree> out{};
  // From block 4 the chain could emit 0 then -4: the underflow guard keeps
  // the emission inside the block-ID space.
  const std::size_t n = m.predict(4, out);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0], 0u);
}

TEST(MarkovPredictor, AdvanceKeepsHistoryWithoutTraining) {
  MarkovPrefetcher m(small_cfg());
  for (VaBlockId b : {0u, 1u, 2u, 3u, 4u}) m.observe(b);  // (+1 -> +1) conf 3
  const std::uint64_t trained = m.observes();
  std::array<VaBlockId, MarkovPrefetcher::kMaxDegree> out{};
  ASSERT_EQ(m.predict(4, out), 2u);
  // The driver advances over its own emissions (5, 6): the history stays
  // contiguous but no confidence moves.
  m.advance(5);
  m.advance(6);
  EXPECT_EQ(m.observes(), trained);
  // The next real fault (7) reads as delta +1 from block 6 — NOT as the
  // delta-3 jump 4 -> 7 that would have churned the table.
  m.observe(7);
  ASSERT_EQ(m.predict(7, out), 2u);
  EXPECT_EQ(out[0], 8u);
}

TEST(MarkovPredictor, SameTraceSamePredictions) {
  // Determinism property at the unit level: two predictors fed the same
  // trace agree on every prediction, including mid-trace.
  auto trace = [] {
    std::vector<VaBlockId> t;
    std::uint64_t s = 1234;
    VaBlockId b = 0;
    for (int i = 0; i < 500; ++i) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      b += (s >> 11) % 5;
      t.push_back(b);
    }
    return t;
  }();
  MarkovPrefetcher a(small_cfg());
  MarkovPrefetcher b(small_cfg());
  std::array<VaBlockId, MarkovPrefetcher::kMaxDegree> oa{}, ob{};
  for (VaBlockId blk : trace) {
    a.observe(blk);
    b.observe(blk);
    const std::size_t na = a.predict(blk, oa);
    const std::size_t nb = b.predict(blk, ob);
    ASSERT_EQ(na, nb);
    for (std::size_t i = 0; i < na; ++i) ASSERT_EQ(oa[i], ob[i]);
  }
  EXPECT_EQ(a.observes(), b.observes());
}

// --- speculative-backing notification golden (PR-10 bugfix audit) --------

/// LRU that records every lifecycle notification in arrival order.
class RecordingEviction final : public LruEviction {
 public:
  void on_block_allocated(VaBlockId b) override {
    events.push_back("A" + std::to_string(b));
    LruEviction::on_block_allocated(b);
  }
  void on_block_touched(VaBlockId b) override {
    events.push_back("T" + std::to_string(b));
    LruEviction::on_block_touched(b);
  }
  std::vector<std::string> events;
};

TEST(SpeculativeBacking, EmitsAllocateWithoutTouch) {
  // Demand-fault blocks 0..4 one pass at a time. The +1 block-delta chain
  // reaches the emit threshold while servicing block 4, so the markov
  // predictor speculatively populates blocks 5 and 6 — and the policy must
  // see them ALLOCATED but never TOUCHED: speculation is not a use, and
  // CLOCK/2Q rank victims on exactly that distinction.
  SimConfig cfg;
  cfg.set_gpu_memory(64ull << 20);  // undersubscribed: no eviction noise
  cfg.costs.driver_cold_start = 0;
  cfg.driver.prefetch = PrefetchMode::Markov;
  Simulator sim(cfg);
  sim.malloc_managed(16ull << 20, "data");  // 8 blocks

  auto rec = std::make_unique<RecordingEviction>();
  RecordingEviction* raw = rec.get();
  sim.driver().set_eviction_policy(std::move(rec));

  for (VaBlockId b = 0; b <= 4; ++b) {
    FaultEntry e;
    e.page = b * kPagesPerBlock;
    e.block = b;
    e.range = sim.address_space().range_of(e.page);
    e.access = FaultAccessType::Read;
    ASSERT_TRUE(sim.fault_buffer().push(e, sim.event_queue().now()));
    sim.driver().on_gpu_interrupt();
    sim.event_queue().run();
  }

  EXPECT_GT(sim.driver().counters().markov_blocks_prefetched, 0u);
  // Golden sequence: each demand pass allocates then touches its block; the
  // pass that crossed the confidence threshold appends the two speculative
  // allocations with no touch — ever — for blocks 5 and 6.
  const std::vector<std::string> want = {"A0", "T0", "A1", "T1", "A2", "T2",
                                         "A3", "T3", "A4", "T4", "A5", "A6"};
  EXPECT_EQ(raw->events, want);
  // Speculative residency actually landed.
  EXPECT_GT(sim.address_space().block(5).gpu_resident.count(), 0u);
}

TEST(GpuDrivenBacking, TouchFollowsAllocate) {
  // The GPU-driven backend resolves one fault at a time and must notify in
  // the driver path's order: a demand fault on an unbacked block backs it
  // (allocate) and only then counts as a use (touch). A touch ahead of the
  // allocation hits an untracked block and is lost, so CLOCK and 2Q would
  // rank every freshly faulted block as never demanded.
  SimConfig cfg;
  cfg.set_gpu_memory(64ull << 20);  // undersubscribed: no eviction noise
  cfg.driver.backend = ServicingBackendKind::GpuDriven;
  Simulator sim(cfg);
  sim.malloc_managed(16ull << 20, "data");

  auto rec = std::make_unique<RecordingEviction>();
  RecordingEviction* raw = rec.get();
  sim.driver().set_eviction_policy(std::move(rec));

  // Blocks 0..2 on first touch, then a second page of block 0.
  for (VirtPage p : {VirtPage{0}, VirtPage{kPagesPerBlock},
                     VirtPage{2 * kPagesPerBlock}, VirtPage{1}}) {
    FaultEntry e;
    e.page = p;
    e.block = block_of_page(p);
    e.range = sim.address_space().range_of(e.page);
    e.access = FaultAccessType::Read;
    ASSERT_TRUE(sim.fault_buffer().push(e, sim.event_queue().now()));
    sim.driver().on_gpu_interrupt();
    sim.event_queue().run();
  }

  const std::vector<std::string> want = {"A0", "T0", "A1", "T1",
                                         "A2", "T2", "T0"};
  EXPECT_EQ(raw->events, want);
}

}  // namespace
}  // namespace uvmsim
