// GPUVM-style GPU-driven paging (arxiv 2411.05309): the pass body that
// DriverConfig::backend = GpuDriven selects in Driver::run_pass().
//
// The CPU round-trip disappears: a GPU-side resolution engine drains the
// fault queue per-fault — no interrupt (queue visibility replaces the 18 µs
// interrupt latency), no batch fetch/preprocess pass, no prefetcher, no
// replay policy. Each fault pays a small resolution cost, allocates its
// base-page group from a device-resident pool (no RM round trip), pulls
// host-resident data over the interconnect as page-sized RDMA reads
// (reserve_pipelined: no bulk-transfer setup latency, but every 4 KB
// occupies the wire — this is what forfeits the driver path's coalesced
// 2 MB migration amortization), and updates its PTEs locally.
//
// Contention is modeled on the bounded resolution queue: queue_slots
// resolutions may be in flight; the i-th fault runs on slot i % N and
// stalls until that slot's previous resolution finishes. Under dense fault
// storms the stall time dominates, which is the backend's honest cost.
//
// Memory pressure reuses the driver's chunk-granular eviction machinery
// (GPUVM, too, must evict under oversubscription); pages that cannot be
// backed degrade to host-pinned remote mappings, mirroring the driver
// path's graceful degradation.
#include <algorithm>
#include <vector>

#include "sim/annotations.h"
#include "uvm/driver.h"

namespace uvmsim {

SimTime Driver::gpu_driven_pass() {
  // No pass overhead, no driver cold start: the resolution engine is
  // resident on the GPU and sees the queue directly.
  SimTime engine_start = drain_access_counters(d_.eq->now());

  SimTime pass_end = engine_start;
  // uvmsim-lint: allow(hot-local-container, "per-drain staging vector, reserved upfront; amortized across the whole drain")
  std::vector<FaultEntry> drained;
  drained.reserve(d_.fb->size());
  while (auto e = d_.fb->pop()) drained.push_back(*e);
  counters_.faults_fetched += drained.size();

  // Resolution is strictly serial in pop order (the slot queue is the
  // ordering authority here).
  const std::uint64_t resolved = drained.size();
  for (const FaultEntry& e : drained) {
    queue_latency_.add(static_cast<std::uint64_t>(std::max<SimTime>(
        0, std::max(engine_start, e.ready_at) - e.raised_at)));
    pass_end = std::max(pass_end, resolve_fault(e, engine_start));
  }

  // One resume doorbell per drain: parked warps wake together once every
  // in-flight resolution has landed.
  if (resolved > 0 && d_.gpu->has_stalled_warps()) {
    const SimDuration issue = cm_.gpu_driven.resume_issue;
    prof_.add(CostCategory::ReplayPolicy, issue);
    ++counters_.replays_issued;
    const SimTime fire_at = pass_end + issue;
    trace_instant(TraceCategory::Replay, "gpu.resume", pass_end,
                  counters_.replays_issued, "fire_at", fire_at);
    GpuEngine* gpu = d_.gpu;
    d_.eq->schedule_at(fire_at, [gpu] { gpu->replay(); });
    pass_end = fire_at;
  }
  return pass_end;
}

UVMSIM_HOT SimTime Driver::resolve_fault(const FaultEntry& e,
                                         SimTime engine_start) {
  const CostModel::GpuDrivenCosts& gd = cm_.gpu_driven;

  // Bounded resolution queue: the fault cannot start resolving until its
  // slot's previous occupant finishes. This is where dense fault storms
  // pay — with every slot busy, per-fault handling serializes.
  const std::size_t slot = next_slot_++ % slot_free_.size();
  const SimTime arrival = std::max(engine_start, e.ready_at);
  const SimTime start = std::max(arrival, slot_free_[slot]);
  if (start > arrival) {
    ++counters_.gpu_queue_stalls;
    counters_.gpu_queue_stall_ns +=
        static_cast<std::uint64_t>(start - arrival);
    prof_.add(CostCategory::PreProcess, start - arrival);
  }

  SimTime t = start;
  VaBlock& blk = d_.as->block(e.block);
  const std::uint32_t pi = page_in_block(e.page);
  const PageMask mapped = blk.gpu_resident | blk.remote_mapped;

  // Fault-driven residency signal, exactly as on the driver path (backing
  // is chunked but residency tracking stays block-granular).
  eviction_->on_slice_touched(SliceKey{blk.id, 0});

  if (mapped.test(pi)) {
    // Stale: another fault in this drain (or an earlier pass) already
    // resolved the page; short-circuit.
    ++counters_.stale_faults;
    t += gd.resolve_stale;
    prof_.add(CostCategory::ServiceOther, gd.resolve_stale);
    if (log_.enabled()) {
      log_.record(FaultLogEntry{0, t, FaultLogKind::Fault, e.page, blk.id,
                                blk.range, true});
    }
    slot_free_[slot] = t;
    return t;
  }

  ++counters_.faults_serviced;
  ++counters_.gpu_resolved_faults;
  t += gd.resolve_base;
  prof_.add(CostCategory::ServiceOther, gd.resolve_base);
  blk.service_locked = true;

  // Service granularity: the host base page (one fault covers the whole
  // aligned base-page group, as on the driver path) — but never the 2 MB
  // block; GPU-driven paging is page-granular by design.
  const std::uint32_t group = d_.gpu->config().fault_granularity_pages;
  const std::uint32_t lo = pi - pi % group;
  const std::uint32_t hi = std::min(lo + group, blk.num_pages);
  PageMask need;
  need.set_range(lo, hi);
  need = need.and_not(mapped);
  if (group > 1 && need.count() > 0) {
    counters_.base_page_fill_pages += need.count() - 1;
  }

  const MemAdvise& advise = d_.as->range(blk.range).advise;
  if (advise.remote_map) {
    // cudaMemAdvise remote mapping binds the backend too: map, never
    // migrate.
    d_.pt->map_remote(blk, need);
    const SimDuration cost =
        static_cast<SimDuration>(need.count()) * gd.pte_update;
    t += cost;
    counters_.pages_remote_mapped += need.count();
    prof_.add(CostCategory::ServiceMap, cost);
    if (log_.enabled()) {
      log_.record(FaultLogEntry{0, t, FaultLogKind::Fault, e.page, blk.id,
                                blk.range, false});
    }
    blk.service_locked = false;
    slot_free_[slot] = t;
    return t;
  }

  // --- physical backing: 4 KB chunks from the device-resident pool ---
  PageMask unbacked;
  PageMask missing = need.and_not(blk.backing.backed_pages());
  if (missing.any()) {
    eviction_->begin_victim_round();
    const bool first_chunk = !blk.backing.any();
    for (std::uint32_t i : missing.set_bits()) {
      if (!back_page(blk, i, t)) unbacked.set(i);
    }
    if (first_chunk && blk.backing.any()) {
      eviction_->on_slice_allocated(SliceKey{blk.id, 0});
    }
    eviction_->end_victim_round();
  }

  PageMask to_populate = need.and_not(unbacked);
  if (unbacked.any()) {
    // Graceful degradation mirrors the driver path: pages with no eviction
    // victim available stay host-pinned behind a remote mapping.
    SimTime tr = t;
    d_.pt->map_remote(blk, unbacked);
    t += static_cast<SimDuration>(unbacked.count()) * gd.pte_update;
    counters_.gpu_remote_fallback_pages += unbacked.count();
    prof_.add(CostCategory::ErrorRecovery, t - tr);
    trace_span(TraceCategory::Recovery, "gpu.degraded_remote", tr, t, blk.id,
               "pages", unbacked.count());
    log_pages(blk, unbacked, t, FaultLogKind::Hazard);
    if (to_populate.none()) {
      if (log_.enabled()) {
        log_.record(FaultLogEntry{0, t, FaultLogKind::Fault, e.page, blk.id,
                                  blk.range, false});
      }
      blk.service_locked = false;
      slot_free_[slot] = t;
      return t;
    }
  }

  t = zero_fill(blk, to_populate, t);  // pages born on the GPU

  // --- pull host-resident data as page-sized RDMA reads ---
  // reserve_pipelined: no bulk-transfer setup latency, but each 4 KB read
  // occupies the wire. This is the backend's trade: no 2 MB amplification,
  // no coalescing either.
  PageMask fetch = to_populate & blk.cpu_resident & blk.ever_populated;
  if (fetch.any()) {
    SimTime t0 = t;
    for ([[maybe_unused]] std::uint32_t i : fetch.set_bits()) {
      t = d_.dma->link().reserve_pipelined(Direction::HostToDevice, t,
                                           kPageSize, gd.rdma_overhead);
    }
    blk.cpu_resident &= ~fetch;  // paged migration unmaps the source
    counters_.pages_migrated_h2d += fetch.count();
    counters_.gpu_page_fetches += fetch.count();
    prof_.add(CostCategory::ServiceMigrate, t - t0);
  }

  // --- local PTE updates, no membar/TLB broadcast ---
  d_.pt->map_pages(blk, to_populate);
  const SimDuration map_cost =
      static_cast<SimDuration>(to_populate.count()) * gd.pte_update;
  t += map_cost;
  prof_.add(CostCategory::ServiceMap, map_cost);

  if (log_.enabled()) {
    log_.record(FaultLogEntry{0, t, FaultLogKind::Fault, e.page, blk.id,
                              blk.range, false});
  }
  trace_span(TraceCategory::Service, "gpu.resolve", start, t, e.page, "block",
             blk.id, "pages", to_populate.count(), "stalled",
             start > arrival ? 1 : 0);

  blk.service_locked = false;
  slot_free_[slot] = t;
  return t;
}

UVMSIM_HOT bool Driver::back_page(VaBlock& blk, std::uint32_t i, SimTime& t) {
  const CostModel::GpuDrivenCosts& gd = cm_.gpu_driven;

  std::uint32_t transient_failures = 0;
  for (;;) {
    auto res = d_.pma->alloc_bytes(kPageSize, t);
    if (res.ok) {
      // Device-resident free list: flat cost, no RM round trip and no
      // split charge even when the byte pool itself refilled.
      t += gd.alloc_page;
      prof_.add(CostCategory::ServicePmaAlloc, gd.alloc_page);
      blk.backing.set_base(i);
      return true;
    }
    if (res.transient) {
      pma_backoff(blk.id, transient_failures, t);
      continue;
    }
    // Exhausted: reuse the driver's chunk-granular eviction machinery.
    if (!evict_victim(t, blk.id, kPageSize)) {
      ++counters_.eviction_victim_unavailable;
      return false;
    }
  }
}

}  // namespace uvmsim
