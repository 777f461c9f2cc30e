// Driver event counters (the paper's Table I / Table II raw material).
#pragma once

#include <cstdint>

namespace uvmsim {

struct DriverCounters {
  std::uint64_t passes = 0;             ///< driver batch passes executed
  std::uint64_t batches = 0;            ///< non-empty batches processed
  std::uint64_t wakeups = 0;            ///< interrupt-driven wakeups
  std::uint64_t faults_fetched = 0;     ///< entries read from the fault buffer
  std::uint64_t faults_serviced = 0;    ///< non-duplicate faults handled
  std::uint64_t duplicate_faults = 0;   ///< batch-dedup'd (same page twice)
  std::uint64_t stale_faults = 0;       ///< page already resident at service
  std::uint64_t polls = 0;              ///< not-ready poll iterations
  /// Queue-latency samples clamped to zero because the entry's raise time
  /// was past the fetch cursor (corrupted/reordered entries).
  std::uint64_t queue_latency_clamped = 0;
  std::uint64_t blocks_serviced = 0;    ///< VABlock bins processed
  std::uint64_t pages_migrated_h2d = 0; ///< demand + prefetch migrations
  std::uint64_t pages_zeroed = 0;       ///< first-touch zero-fills
  std::uint64_t pages_prefetched = 0;   ///< pages moved only by prefetching
  std::uint64_t replays_issued = 0;
  std::uint64_t buffer_flushes = 0;
  std::uint64_t flushed_entries = 0;
  std::uint64_t evictions = 0;          ///< eviction operations performed
  std::uint64_t pages_evicted = 0;      ///< pages written back device->host
  std::uint64_t prefetched_evicted_unused = 0;  ///< prefetched, never touched, evicted
  std::uint64_t service_restarts = 0;   ///< fault-path restarts forced by eviction
  std::uint64_t access_notifications = 0;  ///< access-counter records drained

  // --- access-behaviour extensions (paper §III-A behaviours 2 and 3) ---
  std::uint64_t pages_remote_mapped = 0;   ///< zero-copy mappings installed
  std::uint64_t pages_duplicated = 0;      ///< read-mostly duplications
  std::uint64_t writebacks_avoided = 0;    ///< evicted pages with valid host copy
  std::uint64_t cpu_faults_serviced = 0;   ///< host-side access migrations
  std::uint64_t prefetch_async_pages = 0;  ///< explicit bulk-prefetch pages

  /// Extra pages serviced because base pages are wider than 4 KB (Power9
  /// mode): the non-faulted remainder of each faulted base-page group.
  std::uint64_t base_page_fill_pages = 0;

  /// Remote-mapped pages promoted to local residency by access-counter
  /// notifications (uvm_perf_access_counters-style migration).
  std::uint64_t counter_promoted_pages = 0;

  // --- chunked backing (all zero on the pressure-free root-chunk path) ---
  std::uint64_t blocks_split = 0;       ///< blocks first backed below root granularity
  std::uint64_t subchunk_allocs = 0;    ///< 64 KB / 4 KB chunks allocated
  std::uint64_t partial_evictions = 0;  ///< evictions freeing only part of a block
  std::uint64_t chunks_evicted = 0;     ///< sub-chunks released by partial evictions
  std::uint64_t blocks_coalesced = 0;   ///< fragmented blocks re-merged to a root chunk

  // --- learned (Markov) prefetcher (all zero under the tree policy) ---
  std::uint64_t markov_observes = 0;     ///< block transitions fed to the table
  std::uint64_t markov_predictions = 0;  ///< confident predictions emitted
  std::uint64_t markov_blocks_prefetched = 0;  ///< predicted blocks populated

  // --- thrashing mitigation ---
  std::uint64_t thrash_pinned_pages = 0;   ///< faults served by pin/remote map
  std::uint64_t thrash_throttles = 0;      ///< throttled block services

  // --- GPU-driven servicing backend (all zero on the driver-centric
  // path): per-fault resolution over the bounded GPU-side queue ---
  std::uint64_t gpu_resolved_faults = 0;   ///< faults resolved GPU-side
  std::uint64_t gpu_queue_stalls = 0;      ///< resolutions that waited for a slot
  std::uint64_t gpu_queue_stall_ns = 0;    ///< total slot-wait time
  std::uint64_t gpu_page_fetches = 0;      ///< pages pulled over the RDMA queue
  std::uint64_t gpu_remote_fallback_pages = 0;  ///< unbackable, left host-pinned

  // --- hazard recovery (all zero in hazard-free runs) ---
  std::uint64_t dma_retries = 0;           ///< failed-copy retry rounds
  std::uint64_t dma_runs_retried = 0;      ///< individual runs re-issued
  std::uint64_t dma_engine_resets = 0;     ///< escalations after a failed round
  std::uint64_t pma_alloc_retries = 0;     ///< transient RM-failure retries
  std::uint64_t watchdog_rescues = 0;      ///< forced replays for lost faults
  std::uint64_t replay_storms = 0;         ///< storm-watchdog escalations
  std::uint64_t storm_flushes = 0;         ///< buffer flushes forced by storms
  std::uint64_t degraded_remote_pages = 0; ///< remote-mapped for lack of victim
  std::uint64_t eviction_victim_unavailable = 0;  ///< no-victim alloc failures
};

}  // namespace uvmsim
