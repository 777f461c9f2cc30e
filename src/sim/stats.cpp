#include "sim/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace uvmsim {

void Accumulator::add(double x) {
  ++n_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(n_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

namespace {
int bucket_index(std::uint64_t v) {
  if (v == 0) return 0;
  return std::bit_width(v);  // v in [2^(w-1), 2^w) -> bucket w
}
}  // namespace

void LogHistogram::add(std::uint64_t value) {
  ++buckets_[bucket_index(value)];
  ++total_;
}

double LogHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > target) {
      if (i == 0) return 0.5;
      double lo = std::ldexp(1.0, i - 1);
      double hi = std::ldexp(1.0, i);
      return (lo + hi) / 2.0;
    }
  }
  // Unreachable while total_ > 0 (the cumulative count always crosses
  // target); return the top bucket's midpoint rather than an out-of-range
  // edge for defence in depth.
  return (std::ldexp(1.0, kBuckets - 2) + std::ldexp(1.0, kBuckets - 1)) /
         2.0;
}

std::string LogHistogram::to_string() const {
  std::ostringstream os;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    // The top bucket's true upper edge is 2^64, which does not fit in a
    // uint64; print the largest representable value instead. Keyed off
    // kBuckets (not a literal 64) so a bucket-count change cannot
    // reintroduce the shift-overflow.
    std::uint64_t lo = (i == 0) ? 0 : (1ULL << (i - 1));
    std::uint64_t hi =
        (i == 0) ? 1 : (i == kBuckets - 1 ? ~0ULL : (1ULL << i));
    os << lo << ' ' << hi << ' ' << buckets_[i] << '\n';
  }
  return os.str();
}

}  // namespace uvmsim
