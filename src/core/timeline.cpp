#include "core/timeline.h"

#include <algorithm>
#include <stdexcept>

namespace uvmsim {

Timeline::Timeline(const std::vector<FaultLogEntry>& log,
                   SimDuration bucket_width)
    : bucket_(bucket_width) {
  if (bucket_ == 0) throw std::invalid_argument("Timeline: zero bucket");
  SimTime last = 0;
  for (const auto& e : log) last = std::max(last, e.time);
  buckets_.resize(last / bucket_ + 1);
  for (const auto& e : log) {
    buckets_[e.time / bucket_][static_cast<std::size_t>(e.kind)] += 1;
  }
}

std::string Timeline::sparkline(FaultLogKind kind, std::size_t width) const {
  static constexpr char kRamp[] = " .:-=+*#";
  static constexpr std::size_t kLevels = sizeof(kRamp) - 2;
  if (width == 0 || buckets_.empty()) return "";

  // Resample buckets into `width` columns (sum within each column).
  std::vector<std::uint64_t> cols(width, 0);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    std::size_t col = i * width / buckets_.size();
    cols[col] += buckets_[i][static_cast<std::size_t>(kind)];
  }
  std::uint64_t peak = *std::max_element(cols.begin(), cols.end());
  std::string out(width, ' ');
  if (peak == 0) return out;
  for (std::size_t c = 0; c < width; ++c) {
    if (cols[c] == 0) continue;
    // Map [1, peak] onto ramp indices [1, kLevels] so the peak always gets
    // the top glyph.
    std::size_t level =
        peak == 1 ? kLevels : 1 + (cols[c] - 1) * (kLevels - 1) / (peak - 1);
    out[c] = kRamp[std::min(level, kLevels)];
  }
  return out;
}

}  // namespace uvmsim
