#include "sim/hazards.h"

namespace uvmsim {

HazardInjector::HazardInjector(const HazardConfig& cfg) : cfg_(cfg) {
  Rng root(cfg_.seed);
  dma_rng_ = root.fork();
  fb_rng_ = root.fork();
  pma_rng_ = root.fork();
  ac_rng_ = root.fork();
}

bool HazardInjector::dma_copy_fails(SimTime now) {
  if (cfg_.dma_fail_rate <= 0.0 || !in_window(now)) return false;
  if (dma_rng_.next_double() >= cfg_.dma_fail_rate) return false;
  ++stats_.dma_failures;
  return true;
}

FbCorruption HazardInjector::fb_corruption(SimTime now) {
  if (cfg_.fb_corrupt_rate <= 0.0 || !in_window(now)) {
    return FbCorruption::None;
  }
  double u = fb_rng_.next_double();
  if (u >= cfg_.fb_corrupt_rate) return FbCorruption::None;
  // One draw decides both whether and how: the corrupted probability mass
  // partitions into three equal kinds.
  double kind = u / cfg_.fb_corrupt_rate * 3.0;
  if (kind < 1.0) {
    ++stats_.fb_dropped;
    return FbCorruption::Drop;
  }
  if (kind < 2.0) {
    ++stats_.fb_duplicated;
    return FbCorruption::Duplicate;
  }
  ++stats_.fb_stalled;
  return FbCorruption::StallReady;
}

bool HazardInjector::pma_transient_failure(SimTime now) {
  if (cfg_.pma_fail_rate <= 0.0 || !in_window(now)) return false;
  if (pma_rng_.next_double() >= cfg_.pma_fail_rate) return false;
  ++stats_.pma_failures;
  return true;
}

bool HazardInjector::access_counter_lost(SimTime now) {
  if (cfg_.ac_drop_rate <= 0.0 || !in_window(now)) return false;
  if (ac_rng_.next_double() >= cfg_.ac_drop_rate) return false;
  ++stats_.ac_lost;
  return true;
}

// ---------------------------------------------------------------------------
// Campaign-level hazards
// ---------------------------------------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer (Steele et al.) — full-avalanche, stateless.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace {

/// Maps a mixed key to a uniform double in [0, 1).
double keyed_uniform(std::uint64_t seed, std::uint64_t salt,
                     std::uint64_t key) {
  const std::uint64_t u = mix64(seed ^ mix64(salt ^ mix64(key)));
  return static_cast<double>(u >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kSaltSabotage = 0x5ab07a6eull;
constexpr std::uint64_t kSaltJournal = 0x10c4a1ull;

}  // namespace

CampaignHazardInjector::CampaignHazardInjector(const CampaignHazardConfig& cfg)
    : cfg_(cfg) {}

WorkerSabotage CampaignHazardInjector::worker_sabotage(
    std::uint64_t request_hash, std::uint32_t attempt) const {
  if (cfg_.worker_crash_rate <= 0.0 && cfg_.worker_hang_rate <= 0.0) {
    return WorkerSabotage::None;
  }
  // One draw partitions into [crash | hang | none]: keyed by (hash, attempt)
  // so a retry gets a fresh decision but a resumed campaign replays the
  // same decision for the same attempt.
  const double u = keyed_uniform(
      cfg_.seed, kSaltSabotage,
      request_hash ^ (static_cast<std::uint64_t>(attempt) << 48));
  if (u < cfg_.worker_crash_rate) return WorkerSabotage::Crash;
  if (u < cfg_.worker_crash_rate + cfg_.worker_hang_rate) {
    return WorkerSabotage::Hang;
  }
  return WorkerSabotage::None;
}

bool CampaignHazardInjector::journal_truncation(
    std::uint64_t payload_hash, std::uint64_t session_index) const {
  if (cfg_.journal_truncate_rate <= 0.0) return false;
  return keyed_uniform(cfg_.seed, kSaltJournal,
                       payload_hash ^ mix64(session_index)) <
         cfg_.journal_truncate_rate;
}

}  // namespace uvmsim
