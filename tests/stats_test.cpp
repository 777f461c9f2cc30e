#include "sim/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace uvmsim {
namespace {

/// Deterministic pseudo-random stream for the property tests.
std::uint64_t lcg_next(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 11;
}

/// Reference for LogHistogram::quantile: the midpoint of the bucket holding
/// the rank-floor(q*(n-1)) sample of the sorted inputs ([0,1) reads as 0.5).
double bucket_midpoint_of(std::uint64_t v) {
  if (v == 0) return 0.5;
  int w = std::bit_width(v);
  return (std::ldexp(1.0, w - 1) + std::ldexp(1.0, w)) / 2.0;
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
}

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(LogHistogram, CountsAndQuantiles) {
  LogHistogram h;
  for (std::uint64_t i = 0; i < 100; ++i) h.add(10);  // bucket [8,16)
  EXPECT_EQ(h.count(), 100u);
  double med = h.quantile(0.5);
  EXPECT_GE(med, 8.0);
  EXPECT_LE(med, 16.0);
}

TEST(LogHistogram, ZeroBucket) {
  LogHistogram h;
  h.add(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_LE(h.quantile(0.5), 1.0);
}

TEST(LogHistogram, SpreadQuantilesOrdered) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 4096; v *= 2) {
    for (int i = 0; i < 10; ++i) h.add(v);
  }
  EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
}

TEST(LogHistogram, ToStringListsNonEmptyBuckets) {
  LogHistogram h;
  h.add(3);
  h.add(100);
  std::string s = h.to_string();
  EXPECT_NE(s.find("2 4 1"), std::string::npos);
  EXPECT_NE(s.find("64 128 1"), std::string::npos);
}

TEST(LogHistogram, QuantileMatchesBruteForceReference) {
  // Property check against a sorted-sample reference: the quantile must be
  // the midpoint of the bucket holding the rank-floor(q*(n-1)) value.
  std::uint64_t s = 0xBEEF;
  LogHistogram h;
  std::vector<std::uint64_t> vals;
  for (int i = 0; i < 500; ++i) {
    // Mix magnitudes across many buckets, including zeros.
    std::uint64_t v = lcg_next(s) >> (lcg_next(s) % 50);
    if (i % 17 == 0) v = 0;
    vals.push_back(v);
    h.add(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    auto target = static_cast<std::size_t>(
        q * static_cast<double>(vals.size() - 1));
    EXPECT_DOUBLE_EQ(h.quantile(q), bucket_midpoint_of(vals[target]))
        << "q=" << q;
  }
}

TEST(LogHistogram, TopBucketQuantileAndEdges) {
  // The top bucket's upper edge (2^64) does not fit in a uint64; the dump
  // must not shift-overflow and the quantile must stay inside the bucket.
  LogHistogram h;
  h.add(~std::uint64_t{0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), bucket_midpoint_of(~std::uint64_t{0}));
  std::string s = h.to_string();
  EXPECT_NE(s.find("9223372036854775808 18446744073709551615 1"),
            std::string::npos)
      << s;
}

}  // namespace
}  // namespace uvmsim
