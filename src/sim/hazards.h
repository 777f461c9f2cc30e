// Deterministic hazard injection.
//
// The paper's measurements assume the happy path: every fault entry arrives
// intact, every DMA transfer succeeds, and a physical chunk (or an eviction
// victim) always exists. The real driver spends substantial code on the
// unhappy paths — buffer-overflow re-faults, RM call failures, copy-engine
// faults — and behaviour under those conditions shapes end-to-end UVM cost
// in the oversubscribed regime. The HazardInjector makes those paths
// reachable on demand: it flips deterministic, seeded coins for each
// injection point at configurable rates, optionally restricted to a
// simulated-time window.
//
// Determinism contract: each hazard class owns a private forked Rng stream,
// so enabling one class never perturbs another's decision sequence, and a
// rate of exactly 0 never draws at all — a run with every rate at 0 is
// bit-identical to a run without the injector.
#pragma once

#include <cstdint>

#include "sim/rng.h"
#include "sim/time.h"

namespace uvmsim {

/// Injection rates and window. All rates are per-decision probabilities in
/// [0, 1); a rate of 0 (the default) disables that hazard class entirely.
struct HazardConfig {
  /// Injector seed. 0 means "derive from the master seed" (the Simulator
  /// mixes SimConfig::seed without drawing from its own Rng, so hazard-free
  /// runs are unaffected by the derivation).
  std::uint64_t seed = 0;

  /// Probability that a programmed DMA run fails before reserving the
  /// interconnect (copy-engine fault; the driver retries with backoff).
  double dma_fail_rate = 0.0;
  /// Probability that a fault-buffer entry is corrupted in flight. The
  /// corrupted mass splits evenly into dropped, duplicated, and
  /// ready-flag-stalled entries.
  double fb_corrupt_rate = 0.0;
  /// Probability that a PMA resource-manager call fails transiently (the
  /// driver backs off and retries before falling back to eviction).
  double pma_fail_rate = 0.0;
  /// Probability that a raised access-counter notification is lost before
  /// reaching the host-visible queue.
  double ac_drop_rate = 0.0;

  /// Injection window [window_start, window_end) in simulated time;
  /// window_end == 0 means open-ended.
  SimTime window_start = 0;
  SimTime window_end = 0;

  /// Extra ready-flag lag applied to a StallReady-corrupted entry, beyond
  /// the buffer's normal ready_lag (exercises the driver's poll path).
  SimDuration fb_stall_extra = 20 * kMicrosecond;

  /// True when any rate is set (including invalid negative/NaN values, so
  /// SimConfig::validate() checks and rejects them).
  [[nodiscard]] bool any() const {
    return dma_fail_rate != 0.0 || fb_corrupt_rate != 0.0 ||
           pma_fail_rate != 0.0 || ac_drop_rate != 0.0;
  }
};

/// How one fault-buffer entry is corrupted (None = delivered intact).
enum class FbCorruption : std::uint8_t { None, Drop, Duplicate, StallReady };

/// Cumulative injection counts, snapshotted into the RunResult.
struct HazardStats {
  std::uint64_t dma_failures = 0;    ///< DMA runs failed before transfer
  std::uint64_t fb_dropped = 0;      ///< fault entries lost in flight
  std::uint64_t fb_duplicated = 0;   ///< fault entries delivered twice
  std::uint64_t fb_stalled = 0;      ///< entries with a stalled ready flag
  std::uint64_t pma_failures = 0;    ///< transient RM call failures
  std::uint64_t ac_lost = 0;         ///< access-counter notifications lost

  [[nodiscard]] std::uint64_t total() const {
    return dma_failures + fb_dropped + fb_duplicated + fb_stalled +
           pma_failures + ac_lost;
  }
};

class HazardInjector {
 public:
  /// Forks one Rng stream per hazard class. `cfg` must have passed
  /// SimConfig::validate() (each rate in [0, 1), an ordered window).
  explicit HazardInjector(const HazardConfig& cfg);

  [[nodiscard]] bool enabled() const { return cfg_.any(); }
  [[nodiscard]] const HazardConfig& config() const { return cfg_; }
  [[nodiscard]] const HazardStats& stats() const { return stats_; }

  // Decision points — each draws from its own stream, and only when its
  // rate is nonzero and `now` lies inside the injection window.

  /// Should the DMA run being programmed at `now` fail?
  bool dma_copy_fails(SimTime now);
  /// How is the fault-buffer entry pushed at `now` corrupted, if at all?
  FbCorruption fb_corruption(SimTime now);
  /// Should the RM call at `now` fail transiently?
  bool pma_transient_failure(SimTime now);
  /// Should the access-counter notification raised at `now` be lost?
  bool access_counter_lost(SimTime now);

 private:
  [[nodiscard]] bool in_window(SimTime now) const {
    return now >= cfg_.window_start &&
           (cfg_.window_end == 0 || now < cfg_.window_end);
  }

  HazardConfig cfg_;
  HazardStats stats_;
  Rng dma_rng_{0};
  Rng fb_rng_{0};
  Rng pma_rng_{0};
  Rng ac_rng_{0};
};

// ---------------------------------------------------------------------------
// Campaign-level hazards: failures of the *fleet*, not the simulated machine.
// ---------------------------------------------------------------------------

/// How a campaign worker is sabotaged for one attempt (None = run normally).
enum class WorkerSabotage : std::uint8_t { None, Crash, Hang };

[[nodiscard]] constexpr const char* to_string(WorkerSabotage s) {
  switch (s) {
    case WorkerSabotage::None: return "none";
    case WorkerSabotage::Crash: return "crash";
    case WorkerSabotage::Hang: return "hang";
  }
  return "unknown";
}

/// Injection rates for campaign-level failure modes. All rates are
/// per-decision probabilities in [0, 1); 0 (the default) disables the class.
struct CampaignHazardConfig {
  std::uint64_t seed = 0;
  /// Probability that one run attempt's worker crashes (process isolation:
  /// the child abort()s; thread mode: the attempt is classified as a crash).
  double worker_crash_rate = 0.0;
  /// Probability that one run attempt's worker hangs until the watchdog
  /// kills it (process isolation only; thread mode classifies immediately).
  double worker_hang_rate = 0.0;
  /// Probability that one checkpoint-journal record is torn mid-write
  /// (models SIGKILL between write() and the record's newline); recovery
  /// must skip the damaged line and rerun the affected request.
  double journal_truncate_rate = 0.0;

  [[nodiscard]] bool any() const {
    return worker_crash_rate != 0.0 || worker_hang_rate != 0.0 ||
           journal_truncate_rate != 0.0;
  }
};

/// Deterministic, *stateless* injector for campaign hazards. Unlike
/// HazardInjector's sequential streams, every decision is keyed by stable
/// identifiers (request hash, attempt number), so the decision for a given
/// (request, attempt) is identical across resumes, worker counts, and
/// scheduling orders — which is what keeps a killed-and-resumed campaign's
/// result store byte-identical to an uninterrupted one even with hazards on.
class CampaignHazardInjector {
 public:
  /// `cfg` must have passed the Campaign constructor's checks: each rate
  /// in [0, 1) and crash + hang < 1, so an attempt can always succeed
  /// eventually unless deliberately poisoned.
  explicit CampaignHazardInjector(const CampaignHazardConfig& cfg);

  [[nodiscard]] bool enabled() const { return cfg_.any(); }
  [[nodiscard]] const CampaignHazardConfig& config() const { return cfg_; }

  /// Sabotage decision for attempt `attempt` (1-based) of the request with
  /// content hash `request_hash`. Pure function of (seed, hash, attempt).
  [[nodiscard]] WorkerSabotage worker_sabotage(std::uint64_t request_hash,
                                               std::uint32_t attempt) const;

  /// Whether to tear the journal record with payload hash `payload_hash`;
  /// `session_index` counts records written by this process so a rerun of
  /// the same record in a later session is not condemned to tearing again.
  [[nodiscard]] bool journal_truncation(std::uint64_t payload_hash,
                                        std::uint64_t session_index) const;

 private:
  CampaignHazardConfig cfg_;
};

/// splitmix64 finalizer: the stateless bit mixer behind the keyed campaign
/// hazard decisions (and the request content hash's avalanche step).
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

}  // namespace uvmsim
