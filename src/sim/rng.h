// Deterministic, splittable random-number generation.
//
// Every stochastic choice in the simulator (scheduler jitter, workload
// permutations, cost-model noise) draws from an Rng seeded from the run
// configuration, so a (seed, config) pair fully determines a run. Rng::fork()
// derives an independent child stream, letting subsystems own private streams
// without perturbing each other when call orders change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace uvmsim {

/// SplitMix64-based PRNG: tiny state, excellent diffusion, trivially
/// splittable. Not cryptographic; statistical quality is ample for
/// simulation workloads.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). bound must be > 0. Uses rejection
  /// sampling (Lemire) so the distribution is exactly uniform.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Gaussian sample (Box–Muller) with the given mean/stddev.
  double next_gaussian(double mean, double stddev);

  /// Derives an independent child generator. The child's stream does not
  /// overlap the parent's subsequent output for any practical draw count.
  Rng fork();

  /// Fisher–Yates shuffle of a vector, in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// A random permutation of [0, n), n <= 2^32.
  std::vector<std::uint32_t> permutation(std::uint64_t n);

 private:
  std::uint64_t state_;
  bool have_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace uvmsim
