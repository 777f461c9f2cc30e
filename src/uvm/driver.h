// The UVM driver model: the system under study.
//
// Reproduces the fault-handling loop of NVIDIA's open-source UVM kernel
// module as the paper describes it (§III): an interrupt wakes the driver;
// each pass fetches one batch of faults from the GPU buffer (pre-processing:
// fetch, poll, sort, VABlock binning), services each binned VABlock
// (physical allocation via the PMA — possibly triggering LRU eviction and a
// service restart — zero-fill, coalesced H2D migration, page mapping with
// membar/TLB invalidate, and the two-stage prefetcher), and then issues
// fault replays according to the configured policy. All driver time is
// charged to a Profiler using the paper's cost categories, and every
// serviced fault / prefetch / eviction is appended to the FaultLog.
//
// The driver is strictly serial (one fault-servicing path per GPU, as in the
// real module); its work is simulated by advancing a time cursor through the
// cost model and scheduling the externally visible effects (replays, buffer
// flushes, pass continuation) on the event queue.
//
// DriverConfig::backend picks the body of each pass: the paper's batched
// loop above (driver_pass) or GPUVM-style per-fault resolution on the GPU
// (gpu_driven_pass, in gpu_driven.cpp). Everything around the body — the
// processing guard, pass bookkeeping, adaptive feedback, and the pass
// continuation — is shared.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/fault_log.h"
#include "core/profiler.h"
#include "sim/rng.h"
#include "gpu/access_counters.h"
#include "gpu/fault_buffer.h"
#include "gpu/gpu_engine.h"
#include "mem/address_space.h"
#include "mem/dma_engine.h"
#include "mem/pma.h"
#include "sim/event_queue.h"
#include "sim/hazards.h"
#include "sim/trace.h"
#include "uvm/adaptive_prefetcher.h"
#include "uvm/cost_model.h"
#include "uvm/counters.h"
#include "uvm/driver_config.h"
#include "uvm/eviction_policy.h"
#include "uvm/fault_batch.h"
#include "uvm/markov_prefetcher.h"
#include "uvm/thrashing_detector.h"

namespace uvmsim {

class Driver {
 public:
  /// External subsystems the driver talks to; all outlive the driver.
  struct Deps {
    EventQueue* eq;
    AddressSpace* as;
    FaultBuffer* fb;
    GpuEngine* gpu;
    PhysicalMemoryAllocator* pma;
    DmaEngine* dma;
    AccessCounters* ac;
    /// Optional hazard injector (null in hazard-free runs).
    HazardInjector* hazards = nullptr;
    /// Optional pass tracer (null = tracing disabled; the driver then does
    /// zero tracing work — no stores, no allocations).
    Tracer* tracer = nullptr;
  };

  /// `cfg` must have passed SimConfig::validate(); `seed` drives the
  /// driver's stochastic costs (RM-call jitter).
  Driver(const DriverConfig& cfg, std::uint64_t seed, const CostModel& cm,
         const Deps& deps, bool enable_fault_log = true);

  /// GPU interrupt line: schedules a wakeup unless the driver is already
  /// processing or a wakeup is in flight.
  void on_gpu_interrupt();

  /// Notification that a fault entry failed to reach the buffer (overflow
  /// or injected corruption). Under hazard injection this arms a stall
  /// watchdog: if, after watchdog_interval, warps are still parked with an
  /// empty buffer and an idle driver, a rescue replay is forced so they
  /// re-fault (otherwise the run would deadlock).
  void on_fault_dropped();

  /// Host-side access path (CPU page fault): pages resident only on the GPU
  /// migrate back (read-mostly ranges duplicate on reads instead); a write
  /// unmaps the GPU copy. Returns the completion time. Intended for use
  /// between kernels (host post-processing, pipelines).
  SimTime service_cpu_access(VirtPage first, std::uint64_t npages,
                             bool write);

  /// Explicit bulk prefetch (cudaMemPrefetchAsync equivalent): backs,
  /// migrates (or zero-fills, if never populated) and maps every page of
  /// [first, first+npages) that is neither GPU-resident nor remote-mapped,
  /// in coalesced block-sized transfers, evicting as needed. Returns the
  /// completion time.
  SimTime prefetch_pages(VirtPage first, std::uint64_t npages);

  [[nodiscard]] bool idle() const { return !processing_ && !wake_scheduled_; }
  [[nodiscard]] const DriverConfig& config() const { return cfg_; }
  [[nodiscard]] const CostModel& cost_model() const { return cm_; }
  [[nodiscard]] const DriverCounters& counters() const { return counters_; }
  [[nodiscard]] const Profiler& profiler() const { return prof_; }
  [[nodiscard]] const FaultLog& fault_log() const { return log_; }
  [[nodiscard]] EvictionPolicy& eviction_policy() { return *eviction_; }
  /// Test seam: swaps in a replacement eviction policy (e.g. a recording
  /// stub that pins the notification-sequence contract). Call before any
  /// servicing happens — tracked state does not transfer.
  void set_eviction_policy(std::unique_ptr<EvictionPolicy> policy) {
    eviction_ = std::move(policy);
  }
  /// Non-null only under PrefetchMode::Adaptive.
  [[nodiscard]] const AdaptivePrefetcher* adaptive() const {
    return adaptive_.get();
  }
  /// Non-null only under PrefetchMode::Markov.
  [[nodiscard]] const MarkovPrefetcher* markov() const {
    return markov_.get();
  }
  [[nodiscard]] const ThrashingDetector& thrashing() const {
    return thrashing_;
  }
  /// Distribution of fault buffer-residence times (ns): raise to fetch.
  [[nodiscard]] const LogHistogram& queue_latency() const {
    return queue_latency_;
  }

 private:
  /// Outcome of a hazard-hardened copy: the completion time plus how much
  /// of the elapsed span was recovery (already charged to ErrorRecovery —
  /// callers subtract it from their own category charge).
  struct CopyOutcome {
    SimTime done;
    SimDuration recovery;
  };

  /// Memory-pressure level at the PMA, from the chunking watermarks.
  enum class Pressure : std::uint8_t { None, Split, Fine };

  /// Runs one pass: the guard and bookkeeping around the body that
  /// DriverConfig::backend selects, then the end-of-pass continuation.
  void run_pass();
  /// The paper's pass body: pass overhead and cold start, batch fetch with
  /// preprocessing, per-VABlock service, and the configured replay policy.
  /// Returns the advanced time cursor.
  SimTime driver_pass();
  /// The GPUVM-style pass body: drains the fault buffer and resolves each
  /// fault on the bounded slot queue, then rings one resume doorbell.
  SimTime gpu_driven_pass();
  /// Resolves one fault entry on the GPU-driven path; returns its
  /// completion time.
  SimTime resolve_fault(const FaultEntry& e, SimTime engine_start);
  /// Backs page `i` of `blk` with one 4 KB chunk, evicting under pressure.
  /// Returns false when no eviction victim was available (caller degrades
  /// the page to a remote mapping).
  bool back_page(VaBlock& blk, std::uint32_t i, SimTime& t);
  /// One transient-PMA-failure backoff for `block`: exponential in
  /// `failures` (capped), charged to ErrorRecovery and traced. Advances `t`
  /// and `failures`.
  void pma_backoff(VaBlockId block, std::uint32_t& failures, SimTime& t);
  /// Delay from the GPU raising its first fault signal to the pass body
  /// running: interrupt latency for the CPU driver, queue visibility for
  /// GPU-side resolution.
  [[nodiscard]] SimDuration wake_latency() const;
  /// Services one VABlock bin; returns the advanced time cursor.
  SimTime service_bin(const FaultBatch::Bin& bin, SimTime t);
  /// What populate() backed and mapped, and when the map landed (before
  /// any re-coalesce charge; callers stamp their fault-log records there).
  struct Population {
    PageMask pages;
    SimTime mapped_at = 0;
  };
  /// The per-VABlock population step (paper §III-D) shared by speculation,
  /// bulk prefetch and counter promotion: locks `blk` (restoring its old
  /// lock state after), backs `want` via ensure_backing, drops the pages
  /// that could not be backed, zero-fills never-populated pages, migrates
  /// host-resident ones in coalesced runs, maps the result with one membar
  /// and re-coalesces the block's chunks. Advances `t`; callers do their
  /// own bookkeeping on the returned pages. Demand service (service_bin)
  /// keeps its own migrate, the only one that pipelines or duplicates.
  Population populate(VaBlock& blk, PageMask want, SimTime& t,
                      bool speculative);
  /// Zero-fills the never-populated pages of `pages` (data born on the
  /// GPU) with one DMA memset and marks them populated. Reads only the
  /// storage words [wlo, whi) of `pages`: resolve_fault passes the one to
  /// eight words its fault group spans, every other caller the whole mask.
  SimTime zero_fill(VaBlock& blk, const PageMask& pages, SimTime t,
                    std::uint32_t wlo = 0,
                    std::uint32_t whi = PageMask::kWords);
  /// Maps `pages` GPU-resident: PTE writes plus one membar (ServiceMap).
  SimTime map_local(VaBlock& blk, const PageMask& pages, SimTime t);
  /// Maps `pages` remote (zero-copy): PTE writes plus one membar, charged
  /// to `category`.
  SimTime map_remote(VaBlock& blk, const PageMask& pages, SimTime t,
                     CostCategory category);
  /// Appends one `kind` fault-log record per page of `pages`.
  void log_pages(const VaBlock& blk, const PageMask& pages, SimTime t,
                 FaultLogKind kind);
  /// Guarantees GPU backing for every page in `to_populate`, evicting as
  /// needed. Plentiful memory (or whole-block demand) backs the block with
  /// one 2 MB root chunk — byte-identical to the historical whole-block
  /// path; under the watermarks the demand is backed with 64 KB / 4 KB
  /// sub-chunks instead. `speculative` demand (the prefetcher betting on
  /// density) also takes the root chunk: the real driver's prefetch path
  /// populates at block granularity, which is exactly why prefetching can
  /// aggravate oversubscription. Pages that cannot be backed (no eligible
  /// eviction victim) accumulate in `unbacked` for the caller to degrade
  /// to remote mapping or skip.
  SimTime ensure_backing(VaBlock& blk, const PageMask& to_populate, SimTime t,
                         PageMask& unbacked, bool speculative);
  /// Root-chunk backing for a block with no prior backing (stock path).
  SimTime back_block_root(VaBlock& blk, const PageMask& to_populate, SimTime t,
                          PageMask& unbacked);
  /// Sub-chunk backing for `missing` under memory pressure: 64 KB chunks
  /// for fully-wanted big pages (or all groups above the fine watermark),
  /// 4 KB chunks for the rest.
  SimTime back_block_chunks(VaBlock& blk, const PageMask& missing, SimTime t,
                            PageMask& unbacked);
  /// Allocates `bytes` of PMA backing for `blk`, retrying through transient
  /// RM failures (backoff) and capacity exhaustion (eviction + restart
  /// penalty, counted in service_restarts). `plan_remaining` is the total
  /// still needed by the caller's backing plan, so one eviction can free
  /// enough for the whole remainder. Returns false when no eviction victim
  /// was available.
  bool alloc_backing_bytes(VaBlock& blk, std::uint64_t bytes,
                           std::uint64_t plan_remaining, SimTime& t);
  /// Re-merges a fully-backed full block's sub-chunks into one root chunk
  /// (PMA bytes unchanged: 512 backed pages == 2 MB exactly).
  SimTime maybe_coalesce(VaBlock& blk, SimTime t);
  /// Current pressure level from the PMA free fraction.
  [[nodiscard]] Pressure pressure() const;
  /// Evicts backing from one LRU-eligible victim block, advancing `t`:
  /// a root-backed victim is evicted whole (the historical behaviour); a
  /// fragmented victim frees resident sub-chunks in ascending page order
  /// until `want_bytes` are released (a partial victim stays in LRU and is
  /// re-picked by the next call). Returns false (leaving `t` untouched)
  /// when no victim is eligible.
  bool evict_victim(SimTime& t, VaBlockId faulting_block,
                    std::uint64_t want_bytes);
  /// copy_runs with bounded retry + exponential backoff on injected DMA
  /// failures; after dma_max_retries failed rounds the copy engine is reset
  /// and the budget renews, so the copy always eventually completes.
  CopyOutcome robust_copy(Direction dir, SimTime t,
                          std::span<const std::uint64_t> run_bytes);
  /// Feeds per-block re-fault counts to the replay-storm watchdog; on a
  /// threshold crossing escalates the replay policy and flushes the buffer.
  SimTime storm_observe(VaBlockId block, std::uint64_t refaults, SimTime t);
  /// The configured replay policy, escalated to BatchFlush while a replay
  /// storm is in force.
  [[nodiscard]] ReplayPolicyKind effective_replay_policy(SimTime t) const;
  /// Deferred stall-watchdog check (scheduled by on_fault_dropped).
  void watchdog_check();
  [[nodiscard]] bool hazards_active() const {
    return d_.hazards != nullptr && d_.hazards->enabled();
  }
  /// Charges and schedules a replay notification at cursor `t`. `groups`
  /// is the number of replayed VA-block groups the batch spanned; each
  /// group beyond the first adds cost_model.replay_per_group (zero by
  /// default, so single-group replays match the historical charge).
  SimTime issue_replay(SimTime t, std::uint64_t groups = 1);
  /// Charges and schedules a fault-buffer flush at cursor `t`.
  SimTime flush_buffer(SimTime t);
  /// Drains access-counter notifications into the eviction policy (and the
  /// promotion path when access_counter_migration is on).
  SimTime drain_access_counters(SimTime t);
  /// Populates a hot remote-mapped big page in local GPU memory.
  SimTime promote_hot_region(const AccessCounterNotification& n, SimTime t);
  /// Learned-prefetch step for one serviced bin (Markov policy only):
  /// feeds the block into the delta history, then speculatively populates
  /// the confident chained predictions. Called only from the serial bin
  /// walk, so the predictor sees one deterministic trace.
  SimTime markov_step(const FaultBatch::Bin& bin, SimTime t);
  /// Speculatively backs, fills, migrates, and maps the absent pages of
  /// `blk` covered by `shape` (the triggering bin's fault footprint,
  /// projected). Backs at demand-chunk granularity — not the tree path's
  /// speculative root granularity — and emits on_block_allocated via
  /// ensure_backing but — deliberately — no on_block_touched: speculation
  /// is not a use, and touch-sensitive policies (CLOCK/2Q) must see
  /// prefetched-but-never-demanded data as eviction fodder.
  SimTime populate_speculative(VaBlock& blk, const PageMask& shape, SimTime t);
  /// Density threshold for this pass (config or adaptive; pinned past 100
  /// under the Markov policy, where the tree stage is skipped outright).
  [[nodiscard]] std::uint32_t effective_threshold() const;

  /// Tracing shims: single pointer test on the disabled path.
  void trace_span(TraceCategory c, const char* name, SimTime t0, SimTime t1,
                  std::uint64_t id = 0, const char* a1n = nullptr,
                  std::uint64_t a1 = 0, const char* a2n = nullptr,
                  std::uint64_t a2 = 0, const char* a3n = nullptr,
                  std::uint64_t a3 = 0) {
    if (d_.tracer != nullptr) {
      d_.tracer->span(c, name, t0, t1, id, a1n, a1, a2n, a2, a3n, a3);
    }
  }
  void trace_instant(TraceCategory c, const char* name, SimTime t,
                     std::uint64_t id = 0, const char* a1n = nullptr,
                     std::uint64_t a1 = 0, const char* a2n = nullptr,
                     std::uint64_t a2 = 0) {
    if (d_.tracer != nullptr) {
      d_.tracer->instant(c, name, t, id, a1n, a1, a2n, a2);
    }
  }

  DriverConfig cfg_;
  CostModel cm_;
  Deps d_;
  DriverCounters counters_;
  Profiler prof_;
  FaultLog log_;
  std::unique_ptr<EvictionPolicy> eviction_;
  std::unique_ptr<AdaptivePrefetcher> adaptive_;
  std::unique_ptr<MarkovPrefetcher> markov_;
  ThrashingDetector thrashing_{ThrashingDetector::Config{}};
  LogHistogram queue_latency_;
  /// The batch-fetch output, refilled by every driver_pass(): its bin and
  /// staging vectors keep their capacity from pass to pass.
  FaultBatch batch_;
  Rng rng_;  ///< driver-internal stochastic costs (RM jitter)

  bool processing_ = false;
  bool wake_scheduled_ = false;
  std::uint64_t evictions_before_pass_ = 0;
  /// Completion time of the latest asynchronously issued migration
  /// (pipelined-migration extension); replays never fire before it.
  SimTime migrations_inflight_until_ = 0;

  // --- GPU-driven resolution queue (sized only under GpuDriven) ---
  /// slot_free_[s] = when resolution slot s finishes its current fault.
  std::vector<SimTime> slot_free_;
  std::uint64_t next_slot_ = 0;
  /// The entries of the current drain; keeps its capacity across passes.
  std::vector<FaultEntry> drained_;

  // --- hazard recovery state ---
  bool watchdog_armed_ = false;
  /// Replay storms escalate the policy until this time.
  SimTime storm_until_ = 0;
  struct StormState {
    SimTime window_start = 0;
    std::uint64_t refaults = 0;
  };
  std::unordered_map<VaBlockId, StormState> storm_state_;
};

}  // namespace uvmsim
