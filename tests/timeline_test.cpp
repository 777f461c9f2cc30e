#include "core/timeline.h"

#include <gtest/gtest.h>

#include "core/simulator.h"
#include "workloads/registry.h"

namespace uvmsim {
namespace {

FaultLogEntry entry(SimTime t, FaultLogKind k) {
  FaultLogEntry e;
  e.time = t;
  e.kind = k;
  return e;
}

TEST(Timeline, BucketsEventsByTime) {
  std::vector<FaultLogEntry> log = {
      entry(0, FaultLogKind::Fault),
      entry(999, FaultLogKind::Fault),
      entry(1000, FaultLogKind::Fault),
      entry(2500, FaultLogKind::Eviction),
  };
  Timeline tl(log, 1000);
  ASSERT_EQ(tl.num_buckets(), 3u);
  EXPECT_EQ(tl.count(FaultLogKind::Fault, 0), 2u);
  EXPECT_EQ(tl.count(FaultLogKind::Fault, 1), 1u);
  EXPECT_EQ(tl.count(FaultLogKind::Fault, 2), 0u);
  EXPECT_EQ(tl.count(FaultLogKind::Eviction, 2), 1u);
}

TEST(Timeline, EmptyLogSingleEmptyBucket) {
  Timeline tl({}, 1000);
  EXPECT_EQ(tl.num_buckets(), 1u);
  EXPECT_EQ(tl.count(FaultLogKind::Fault, 0), 0u);
}

TEST(Timeline, ZeroBucketThrows) {
  EXPECT_THROW(Timeline({}, 0), std::invalid_argument);
}

TEST(Timeline, SeriesAndPeak) {
  std::vector<FaultLogEntry> log;
  for (int i = 0; i < 5; ++i) log.push_back(entry(3500, FaultLogKind::Fault));
  log.push_back(entry(500, FaultLogKind::Fault));
  Timeline tl(log, 1000);
  ASSERT_EQ(tl.num_buckets(), 4u);
  EXPECT_EQ(tl.count(FaultLogKind::Fault, 0), 1u);
  EXPECT_EQ(tl.count(FaultLogKind::Fault, 1), 0u);
  EXPECT_EQ(tl.count(FaultLogKind::Fault, 2), 0u);
  EXPECT_EQ(tl.count(FaultLogKind::Fault, 3), 5u);  // the peak
}

TEST(Timeline, SparklineShape) {
  std::vector<FaultLogEntry> log;
  for (int i = 0; i < 10; ++i) log.push_back(entry(0, FaultLogKind::Fault));
  log.push_back(entry(9999, FaultLogKind::Fault));
  Timeline tl(log, 100);
  std::string s = tl.sparkline(FaultLogKind::Fault, 10);
  ASSERT_EQ(s.size(), 10u);
  EXPECT_EQ(s[0], '#');   // peak column
  EXPECT_NE(s[9], ' ');   // single event still visible
  EXPECT_NE(s[9], '#');   // but not the peak glyph
  EXPECT_EQ(s[5], ' ');   // quiet middle
}

TEST(Timeline, SparklineEmptySeries) {
  Timeline tl({}, 1000);
  std::string s = tl.sparkline(FaultLogKind::Fault, 8);
  EXPECT_EQ(s, std::string(8, ' '));
}

TEST(Timeline, EndToEndEvictionWave) {
  // Oversubscribed run: evictions must appear strictly after the first
  // faults (the GPU fills before it evicts).
  SimConfig cfg;
  cfg.set_gpu_memory(16ull << 20);
  Simulator sim(cfg);
  auto wl = make_workload("regular", 24ull << 20);
  wl->setup(sim);
  RunResult r = sim.run();

  Timeline tl(r.fault_log, 100 * kMicrosecond);
  auto first = [&tl](FaultLogKind kind) {
    for (std::size_t i = 0; i < tl.num_buckets(); ++i) {
      if (tl.count(kind, i)) return i;
    }
    return std::size_t{0};
  };
  const std::size_t first_fault = first(FaultLogKind::Fault);
  const std::size_t first_evict = first(FaultLogKind::Eviction);
  EXPECT_GT(first_evict, first_fault);
}

}  // namespace
}  // namespace uvmsim
