// Lightweight statistics accumulators used by instrumentation and reports.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace uvmsim {

/// Streaming accumulator: count/sum/min/max/mean (Welford).
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-boundary histogram with logarithmic (power-of-two) buckets,
/// suitable for latency distributions spanning orders of magnitude.
class LogHistogram {
 public:
  /// Buckets: [0,1), [1,2), [2,4), ... up to 2^63; values land in the bucket
  /// whose range contains them.
  void add(std::uint64_t value);

  [[nodiscard]] std::uint64_t count() const { return total_; }

  /// Approximate quantile (q in [0,1]) from bucket midpoints.
  [[nodiscard]] double quantile(double q) const;

  /// Human-readable dump: one "bucket_lo bucket_hi count" line per non-empty
  /// bucket. perfbench digests it into every run record.
  [[nodiscard]] std::string to_string() const;

 private:
  static constexpr int kBuckets = 65;  // bucket 0 = [0,1), bucket i = [2^(i-1), 2^i)
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t total_ = 0;
};

}  // namespace uvmsim
