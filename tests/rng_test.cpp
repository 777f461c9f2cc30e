#include "sim/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace uvmsim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowZeroThrows) {
  Rng r(7);
  EXPECT_THROW(r.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng r(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextDoubleRoughlyUniform) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng r(17);
  const int n = 50000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    double x = r.next_gaussian(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, PermutationIsValid) {
  Rng r(19);
  auto p = r.permutation(1000);
  ASSERT_EQ(p.size(), 1000u);
  auto sorted = p;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(sorted[i], i);
  // And it actually permutes (not identity).
  EXPECT_NE(p, sorted);
}

TEST(Rng, PermutationDrawsLikeAShuffleOfWideIndices) {
  // 32-bit indices from the same next_below draws: the random workload's
  // page order does not depend on the index width.
  for (std::uint64_t n : {1u, 2u, 33u, 4096u}) {
    Rng a(n), b(n);
    const std::vector<std::uint32_t> got = a.permutation(n);
    std::vector<std::uint64_t> want(n);
    std::iota(want.begin(), want.end(), std::uint64_t{0});
    b.shuffle(want);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << i;
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  EXPECT_THROW(Rng(1).permutation((std::uint64_t{1} << 32) + 1),
               std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(23);
  Rng child = a.fork();
  // Child stream differs from parent's subsequent output.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == child.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(29), b(29);
  Rng ca = a.fork(), cb = b.fork();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

TEST(Rng, ShuffleKeepsElements) {
  Rng r(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace uvmsim
