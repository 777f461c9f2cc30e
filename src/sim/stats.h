// Lightweight statistics accumulators used by instrumentation and reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace uvmsim {

/// Streaming accumulator: count/sum/min/max/mean/variance (Welford).
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

  /// Merges another accumulator into this one (parallel-reduction friendly).
  void merge(const Accumulator& other);

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
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
  /// bucket.
  [[nodiscard]] std::string to_string() const;

  /// Merges another histogram into this one. Bucket counts are add-order
  /// independent, so the result equals adding both sample sequences.
  void merge(const LogHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    total_ += other.total_;
  }

 private:
  static constexpr int kBuckets = 65;  // bucket 0 = [0,1), bucket i = [2^(i-1), 2^i)
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t total_ = 0;
};

/// Exact-quantile helper for small sample sets: stores all samples.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  /// Exact quantile by nearest-rank on the sorted samples; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace uvmsim
