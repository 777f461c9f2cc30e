#include "uvm/backends/gpu_driven.h"

#include <algorithm>
#include <vector>

namespace uvmsim {

GpuDrivenBackend::GpuDrivenBackend(Driver& drv)
    : ServicingBackend(drv),
      slot_free_(std::max<std::uint32_t>(1, costs().gpu_driven.queue_slots),
                 0) {}

SimTime GpuDrivenBackend::service_pass() {
  DriverCounters& ctr = counters();
  Driver::Deps& d = deps();

  // No pass overhead, no driver cold start: the resolution engine is
  // resident on the GPU and sees the queue directly.
  SimTime engine_start = drain_access_counters(d.eq->now());

  SimTime pass_end = engine_start;
  // uvmsim-lint: allow(hot-local-container, "per-drain staging vector, reserved upfront; amortized across the whole drain")
  std::vector<FaultEntry> drained;
  drained.reserve(d.fb->size());
  while (auto e = d.fb->pop()) drained.push_back(*e);
  ctr.faults_fetched += drained.size();

  // Resolution is strictly serial in pop order (the slot queue is the
  // ordering authority here).
  const std::uint64_t resolved = drained.size();
  for (const FaultEntry& e : drained) {
    queue_latency().add(static_cast<std::uint64_t>(std::max<SimTime>(
        0, std::max(engine_start, e.ready_at) - e.raised_at)));
    pass_end = std::max(pass_end, resolve_fault(e, engine_start));
  }

  // One resume doorbell per drain: parked warps wake together once every
  // in-flight resolution has landed.
  if (resolved > 0 && d.gpu->has_stalled_warps()) {
    const SimDuration issue = costs().gpu_driven.resume_issue;
    profiler().add(CostCategory::ReplayPolicy, issue);
    ++ctr.replays_issued;
    const SimTime fire_at = pass_end + issue;
    trace_instant(TraceCategory::Replay, "gpu.resume", pass_end,
                  ctr.replays_issued, "fire_at", fire_at);
    GpuEngine* gpu = d.gpu;
    d.eq->schedule_at(fire_at, [gpu] { gpu->replay(); });
    pass_end = fire_at;
  }
  return pass_end;
}

UVMSIM_HOT SimTime GpuDrivenBackend::resolve_fault(
    const FaultEntry& e, SimTime engine_start) {
  DriverCounters& ctr = counters();
  const CostModel::GpuDrivenCosts& gd = costs().gpu_driven;
  Driver::Deps& d = deps();

  // Bounded resolution queue: the fault cannot start resolving until its
  // slot's previous occupant finishes. This is where dense fault storms
  // pay — with every slot busy, per-fault handling serializes.
  const std::size_t slot = next_slot_++ % slot_free_.size();
  const SimTime arrival = std::max(engine_start, e.ready_at);
  const SimTime start = std::max(arrival, slot_free_[slot]);
  if (start > arrival) {
    ++ctr.gpu_queue_stalls;
    ctr.gpu_queue_stall_ns += static_cast<std::uint64_t>(start - arrival);
    profiler().add(CostCategory::PreProcess, start - arrival);
  }

  SimTime t = start;
  VaBlock& blk = d.as->block(e.block);
  const std::uint32_t pi = page_in_block(e.page);
  const PageMask mapped = blk.gpu_resident | blk.remote_mapped;

  // Fault-driven residency signal, exactly as on the driver path (backing
  // is chunked but residency tracking stays block-granular).
  eviction().on_slice_touched(SliceKey{blk.id, 0});

  if (mapped.test(pi)) {
    // Stale: another fault in this drain (or an earlier pass) already
    // resolved the page; short-circuit.
    ++ctr.stale_faults;
    t += gd.resolve_stale;
    profiler().add(CostCategory::ServiceOther, gd.resolve_stale);
    if (log().enabled()) {
      log().record(FaultLogEntry{0, t, FaultLogKind::Fault, e.page, blk.id,
                                 blk.range, true});
    }
    slot_free_[slot] = t;
    return t;
  }

  ++ctr.faults_serviced;
  ++ctr.gpu_resolved_faults;
  t += gd.resolve_base;
  profiler().add(CostCategory::ServiceOther, gd.resolve_base);
  blk.service_locked = true;

  // Service granularity: the host base page (one fault covers the whole
  // aligned base-page group, as on the driver path) — but never the 2 MB
  // block; GPU-driven paging is page-granular by design.
  const std::uint32_t group = config().base_page_pages;
  const std::uint32_t lo = pi - pi % group;
  const std::uint32_t hi = std::min(lo + group, blk.num_pages);
  PageMask need;
  need.set_range(lo, hi);
  need = need.and_not(mapped);
  if (group > 1 && need.count() > 0) {
    ctr.base_page_fill_pages += need.count() - 1;
  }

  const MemAdvise& advise = d.as->range(blk.range).advise;
  if (advise.remote_map) {
    // cudaMemAdvise remote mapping binds the backend too: map, never
    // migrate.
    d.pt->map_remote(blk, need);
    const SimDuration cost =
        static_cast<SimDuration>(need.count()) * gd.pte_update;
    t += cost;
    ctr.pages_remote_mapped += need.count();
    profiler().add(CostCategory::ServiceMap, cost);
    if (log().enabled()) {
      log().record(FaultLogEntry{0, t, FaultLogKind::Fault, e.page, blk.id,
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
    eviction().begin_victim_round();
    const bool first_chunk = !blk.backing.any();
    for (std::uint32_t i : missing.set_bits()) {
      if (!back_page(blk, i, t)) unbacked.set(i);
    }
    if (first_chunk && blk.backing.any()) {
      eviction().on_slice_allocated(SliceKey{blk.id, 0});
    }
    eviction().end_victim_round();
  }

  PageMask to_populate = need.and_not(unbacked);
  if (unbacked.any()) {
    // Graceful degradation mirrors the driver path: pages with no eviction
    // victim available stay host-pinned behind a remote mapping.
    SimTime tr = t;
    d.pt->map_remote(blk, unbacked);
    t += static_cast<SimDuration>(unbacked.count()) * gd.pte_update;
    ctr.gpu_remote_fallback_pages += unbacked.count();
    profiler().add(CostCategory::ErrorRecovery, t - tr);
    trace_span(TraceCategory::Recovery, "gpu.degraded_remote", tr, t, blk.id,
               "pages", unbacked.count());
    if (log().enabled()) {
      for (std::uint32_t i : unbacked.set_bits()) {
        log().record(FaultLogEntry{0, t, FaultLogKind::Hazard,
                                   blk.first_page + i, blk.id, blk.range,
                                   false});
      }
    }
    if (to_populate.none()) {
      if (log().enabled()) {
        log().record(FaultLogEntry{0, t, FaultLogKind::Fault, e.page, blk.id,
                                   blk.range, false});
      }
      blk.service_locked = false;
      slot_free_[slot] = t;
      return t;
    }
  }

  // --- zero-fill pages born on the GPU ---
  PageMask zero = to_populate.and_not(blk.ever_populated);
  if (zero.any()) {
    SimTime t0 = t;
    t = d.dma->zero_fill(
        t, static_cast<std::uint64_t>(zero.count()) * kPageSize);
    blk.ever_populated |= zero;
    ctr.pages_zeroed += zero.count();
    profiler().add(CostCategory::ServiceZero, t - t0);
  }

  // --- pull host-resident data as page-sized RDMA reads ---
  // reserve_pipelined: no bulk-transfer setup latency, but each 4 KB read
  // occupies the wire. This is the backend's trade: no 2 MB amplification,
  // no coalescing either.
  PageMask fetch = to_populate & blk.cpu_resident & blk.ever_populated;
  if (fetch.any()) {
    SimTime t0 = t;
    for ([[maybe_unused]] std::uint32_t i : fetch.set_bits()) {
      t = d.dma->link().reserve_pipelined(Direction::HostToDevice, t,
                                          kPageSize, gd.rdma_overhead);
    }
    blk.cpu_resident &= ~fetch;  // paged migration unmaps the source
    ctr.pages_migrated_h2d += fetch.count();
    ctr.gpu_page_fetches += fetch.count();
    profiler().add(CostCategory::ServiceMigrate, t - t0);
  }

  // --- local PTE updates, no membar/TLB broadcast ---
  d.pt->map_pages(blk, to_populate);
  const SimDuration map_cost =
      static_cast<SimDuration>(to_populate.count()) * gd.pte_update;
  t += map_cost;
  profiler().add(CostCategory::ServiceMap, map_cost);

  if (log().enabled()) {
    log().record(FaultLogEntry{0, t, FaultLogKind::Fault, e.page, blk.id,
                               blk.range, false});
  }
  trace_span(TraceCategory::Service, "gpu.resolve", start, t, e.page, "block",
             blk.id, "pages", to_populate.count(), "stalled",
             start > arrival ? 1 : 0);

  blk.service_locked = false;
  slot_free_[slot] = t;
  return t;
}

UVMSIM_HOT bool GpuDrivenBackend::back_page(VaBlock& blk, std::uint32_t i,
                                            SimTime& t) {
  const CostModel::GpuDrivenCosts& gd = costs().gpu_driven;
  const DriverConfig& cfg = config();
  DriverCounters& ctr = counters();
  Driver::Deps& d = deps();

  std::uint32_t transient_failures = 0;
  for (;;) {
    auto res = d.pma->alloc_bytes(kPageSize, t);
    if (res.ok) {
      // Device-resident free list: flat cost, no RM round trip and no
      // split charge even when the byte pool itself refilled.
      t += gd.alloc_page;
      profiler().add(CostCategory::ServicePmaAlloc, gd.alloc_page);
      blk.backing.set_base(i);
      return true;
    }
    if (res.transient) {
      const std::uint32_t shift =
          std::min(transient_failures, cfg.recovery.pma_backoff_cap);
      const SimDuration backoff = cfg.recovery.pma_backoff_base << shift;
      t += backoff;
      profiler().add(CostCategory::ErrorRecovery, backoff);
      ++ctr.pma_alloc_retries;
      ++transient_failures;
      continue;
    }
    // Exhausted: reuse the driver's chunk-granular eviction machinery.
    if (!evict_victim(t, blk.id, kPageSize)) {
      ++ctr.eviction_victim_unavailable;
      return false;
    }
  }
}

}  // namespace uvmsim
