#include "sim/rng.h"

#include <cmath>
#include <numbers>
#include <numeric>
#include <stdexcept>

namespace uvmsim {

std::uint64_t Rng::next_u64() {
  // SplitMix64 (Steele, Lea, Flood 2014).
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::next_below: bound == 0");
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_gaussian(double mean, double stddev) {
  if (have_spare_gaussian_) {
    have_spare_gaussian_ = false;
    return mean + stddev * spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  double u2 = next_double();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  spare_gaussian_ = r * std::sin(theta);
  have_spare_gaussian_ = true;
  return mean + stddev * r * std::cos(theta);
}

Rng Rng::fork() { return Rng(next_u64()); }

std::vector<std::uint32_t> Rng::permutation(std::uint64_t n) {
  if (n > std::uint64_t{1} << 32) {
    throw std::invalid_argument("Rng::permutation: n exceeds 2^32");
  }
  std::vector<std::uint32_t> v(n);
  std::iota(v.begin(), v.end(), std::uint32_t{0});
  shuffle(v);
  return v;
}

}  // namespace uvmsim
