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
#include <bit>
#include <cassert>

#include "sim/annotations.h"
#include "uvm/driver.h"

namespace uvmsim {

SimTime Driver::gpu_driven_pass() {
  // No pass overhead, no driver cold start: the resolution engine is
  // resident on the GPU and sees the queue directly.
  SimTime engine_start = drain_access_counters(d_.eq->now());

  SimTime pass_end = engine_start;
  drained_.clear();  // capacity kept from the last drain
  while (auto e = d_.fb->pop()) drained_.push_back(*e);
  counters_.faults_fetched += drained_.size();

  // Resolution is strictly serial in pop order (the slot queue is the
  // ordering authority here).
  const std::uint64_t resolved = drained_.size();
  for (const FaultEntry& e : drained_) {
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
  const std::size_t slot = next_slot_;
  if (++next_slot_ == slot_free_.size()) next_slot_ = 0;
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
  // Every return frees the slot at `done`. A resolve must leave the
  // faulting page mapped: otherwise its warp retries, faults again and the
  // run spins instead of failing.
  const auto finish = [&](SimTime done) {
    assert(blk.gpu_resident.test(pi) || blk.remote_mapped.test(pi));
    slot_free_[slot] = done;
    return done;
  };

  // Every fault is a fault-driven residency signal, emitted in the driver
  // path's order: after the fault's backing, so that a block's first demand
  // fault touches the block its backing just began tracking. Stale and
  // remote-mapped faults back nothing and touch straight away.
  if (blk.gpu_resident.test(pi) || blk.remote_mapped.test(pi)) {
    // Stale: another fault in this drain (or an earlier pass) already
    // resolved the page; short-circuit.
    eviction_->on_block_touched(blk.id);
    ++counters_.stale_faults;
    t += gd.resolve_stale;
    prof_.add(CostCategory::ServiceOther, gd.resolve_stale);
    if (log_.enabled()) {
      log_.record(FaultLogEntry{0, t, FaultLogKind::Fault, e.page, blk.id,
                                blk.range, true});
    }
    return finish(t);
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
  // `group` divides 512 (SimConfig::validate), so it is a power of two.
  const std::uint32_t lo = pi & ~(group - 1);
  const std::uint32_t hi = std::min(lo + group, blk.num_pages);
  // Every mask below is computed on the storage words [wlo, whi) the group
  // spans and stays empty elsewhere: one word for host pages of 256 KB or
  // smaller, eight for 2 MB pages.
  const std::uint32_t wlo = lo / PageMask::kWordBits;
  const std::uint32_t whi =
      (hi + PageMask::kWordBits - 1) / PageMask::kWordBits;

  // `need`: the group's unmapped pages; `missing`: those without a chunk.
  PageMask need;
  PageMask missing;
  std::uint32_t n_need = 0;
  std::uint64_t any_missing = 0;
  for (std::uint32_t w = wlo; w < whi; ++w) {
    const std::uint64_t bits =
        PageMask::range_word(w, lo, hi) &
        ~(blk.gpu_resident.word(w) | blk.remote_mapped.word(w));
    const std::uint64_t unbacked_bits = bits & ~blk.backing.backed_word(w);
    need.set_word_bits(w, bits);
    missing.set_word_bits(w, unbacked_bits);
    any_missing |= unbacked_bits;
    n_need += static_cast<std::uint32_t>(std::popcount(bits));
  }
  if (group > 1 && n_need > 0) {
    counters_.base_page_fill_pages += n_need - 1;
  }

  const MemAdvise& advise = d_.as->range(blk.range).advise;
  if (advise.remote_map) {
    // cudaMemAdvise remote mapping binds the backend too: map, never
    // migrate.
    eviction_->on_block_touched(blk.id);
    for (std::uint32_t w = wlo; w < whi; ++w) {
      blk.remote_mapped.set_word_bits(w, need.word(w));
      d_.gpu->on_pages_mapped(blk.id, w, need.word(w));
    }
    const SimDuration cost = static_cast<SimDuration>(n_need) * gd.pte_update;
    t += cost;
    counters_.pages_remote_mapped += n_need;
    prof_.add(CostCategory::ServiceMap, cost);
    if (log_.enabled()) {
      log_.record(FaultLogEntry{0, t, FaultLogKind::Fault, e.page, blk.id,
                                blk.range, false});
    }
    blk.service_locked = false;
    return finish(t);
  }

  // --- physical backing: 4 KB chunks from the device-resident pool ---
  PageMask unbacked;
  std::uint32_t n_unbacked = 0;
  if (any_missing != 0) {
    eviction_->begin_victim_round();
    const bool first_chunk = !blk.backing.any();
    for (std::uint32_t w = wlo; w < whi; ++w) {
      for (std::uint64_t bits = missing.word(w); bits != 0; bits &= bits - 1) {
        const std::uint32_t i =
            w * PageMask::kWordBits +
            static_cast<std::uint32_t>(std::countr_zero(bits));
        if (!back_page(blk, i, t)) {
          unbacked.set(i);
          ++n_unbacked;
        }
      }
    }
    if (first_chunk && blk.backing.any()) {
      eviction_->on_block_allocated(blk.id);
    }
    eviction_->end_victim_round();
  }
  eviction_->on_block_touched(blk.id);

  // From here on `need` holds the pages to populate.
  const std::uint32_t n_populate = n_need - n_unbacked;
  if (n_unbacked > 0) {
    // Graceful degradation mirrors the driver path: pages with no eviction
    // victim available stay host-pinned behind a remote mapping.
    SimTime tr = t;
    for (std::uint32_t w = wlo; w < whi; ++w) {
      need.reset_word_bits(w, unbacked.word(w));
      blk.remote_mapped.set_word_bits(w, unbacked.word(w));
      d_.gpu->on_pages_mapped(blk.id, w, unbacked.word(w));
    }
    t += static_cast<SimDuration>(n_unbacked) * gd.pte_update;
    counters_.gpu_remote_fallback_pages += n_unbacked;
    prof_.add(CostCategory::ErrorRecovery, t - tr);
    trace_span(TraceCategory::Recovery, "gpu.degraded_remote", tr, t, blk.id,
               "pages", n_unbacked);
    log_pages(blk, unbacked, t, FaultLogKind::Hazard);
    if (n_populate == 0) {
      if (log_.enabled()) {
        log_.record(FaultLogEntry{0, t, FaultLogKind::Fault, e.page, blk.id,
                                  blk.range, false});
      }
      blk.service_locked = false;
      return finish(t);
    }
  }

  t = zero_fill(blk, need, t, wlo, whi);  // pages born on the GPU

  // Host-resident pages are fetched; every populated page gains its local
  // PTE. The mask writes come first; the wire and PTE charges follow.
  std::uint32_t n_fetch = 0;
  for (std::uint32_t w = wlo; w < whi; ++w) {
    const std::uint64_t pop = need.word(w);
    const std::uint64_t fetch =
        pop & blk.cpu_resident.word(w) & blk.ever_populated.word(w);
    n_fetch += static_cast<std::uint32_t>(std::popcount(fetch));
    blk.cpu_resident.reset_word_bits(w, fetch);  // paged migration unmaps
    blk.gpu_resident.set_word_bits(w, pop);
    d_.gpu->on_pages_mapped(blk.id, w, pop);
  }

  // --- pull host-resident data as page-sized RDMA reads ---
  // reserve_pipelined: no bulk-transfer setup latency, but each 4 KB read
  // occupies the wire. This is the backend's trade: no 2 MB amplification,
  // no coalescing either.
  if (n_fetch > 0) {
    SimTime t0 = t;
    for (std::uint32_t k = 0; k < n_fetch; ++k) {
      t = d_.dma->link().reserve_pipelined(Direction::HostToDevice, t,
                                           kPageSize, gd.rdma_overhead);
    }
    counters_.pages_migrated_h2d += n_fetch;
    counters_.gpu_page_fetches += n_fetch;
    prof_.add(CostCategory::ServiceMigrate, t - t0);
  }

  // --- local PTE updates, no membar/TLB broadcast ---
  const SimDuration map_cost =
      static_cast<SimDuration>(n_populate) * gd.pte_update;
  t += map_cost;
  prof_.add(CostCategory::ServiceMap, map_cost);

  if (log_.enabled()) {
    log_.record(FaultLogEntry{0, t, FaultLogKind::Fault, e.page, blk.id,
                              blk.range, false});
  }
  trace_span(TraceCategory::Service, "gpu.resolve", start, t, e.page, "block",
             blk.id, "pages", n_populate, "stalled",
             start > arrival ? 1 : 0);

  blk.service_locked = false;
  return finish(t);
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
