#include "uvm/driver.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <vector>

#include "uvm/access_counter_eviction.h"
#include "uvm/eviction_2q.h"
#include "uvm/eviction_clock.h"
#include "uvm/eviction_lru.h"
#include "uvm/prefetcher.h"
#include "uvm/service.h"

namespace uvmsim {

namespace {

/// Calls `fn(block, window)` for each VA block's share of the pages
/// [first, first + npages), in ascending order.
template <typename Fn>
void for_each_block_window(AddressSpace& as, VirtPage first,
                           std::uint64_t npages, Fn&& fn) {
  const VirtPage end = first + npages;
  for (VirtPage p = first; p < end;) {
    VaBlock& blk = as.block_of(p);
    const std::uint32_t lo = page_in_block(p);
    const auto hi = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(blk.num_pages, lo + (end - p)));
    if (hi <= lo) break;  // defensive: past the block's valid pages
    PageMask window;
    window.set_range(lo, hi);
    p += hi - lo;
    fn(blk, window);
  }
}

}  // namespace

Driver::Driver(const DriverConfig& cfg, std::uint64_t seed, const CostModel& cm,
               const Deps& deps, bool enable_fault_log)
    : cfg_(cfg),
      cm_(cm),
      d_(deps),
      log_(enable_fault_log),
      rng_(seed) {
  assert(cfg_.batch_size >= 1);  // SimConfig::validate() rejects 0
  switch (cfg_.eviction_policy) {
    case EvictionPolicyKind::Lru:
      eviction_ = std::make_unique<LruEviction>();
      break;
    case EvictionPolicyKind::AccessCounter:
      eviction_ = std::make_unique<AccessCounterEviction>();
      break;
    case EvictionPolicyKind::Clock:
      eviction_ = std::make_unique<ClockEviction>();
      break;
    case EvictionPolicyKind::TwoQ:
      eviction_ = std::make_unique<TwoQEviction>();
      break;
  }
  switch (cfg_.prefetch) {
    case PrefetchMode::Off:
    case PrefetchMode::Tree:
      break;
    case PrefetchMode::Adaptive:
      adaptive_ = std::make_unique<AdaptivePrefetcher>();
      break;
    case PrefetchMode::Markov:
      markov_ = std::make_unique<MarkovPrefetcher>(cfg_.markov);
      break;
  }
  thrashing_ = ThrashingDetector(cfg_.thrashing);
  if (cfg_.backend == ServicingBackendKind::GpuDriven) {
    slot_free_.assign(std::max<std::uint32_t>(1, cm_.gpu_driven.queue_slots),
                      0);
  }
}

SimDuration Driver::wake_latency() const {
  return cfg_.backend == ServicingBackendKind::GpuDriven
             ? cm_.gpu_driven.queue_wake
             : cm_.interrupt_latency;
}

void Driver::on_gpu_interrupt() {
  if (processing_ || wake_scheduled_) return;
  wake_scheduled_ = true;
  ++counters_.wakeups;
  d_.eq->schedule_in(wake_latency(), [this] {
    wake_scheduled_ = false;
    run_pass();
  });
}

std::uint32_t Driver::effective_threshold() const {
  // Markov policy: the learned predictor owns speculation outright — the
  // bin walk skips the tree stage, so this value is never consulted. Pinned
  // past 100% anyway so any future reader sees "tree off", not a live
  // threshold.
  if (markov_) return 101;
  return adaptive_ ? adaptive_->threshold() : cfg_.prefetch_threshold;
}

void Driver::run_pass() {
  if (processing_ || d_.fb->empty()) return;
  processing_ = true;
  ++counters_.passes;
  evictions_before_pass_ = counters_.evictions;
  // Every block the address space holds can be linked without the policy
  // growing its per-block state mid-service.
  eviction_->reserve_blocks(d_.as->num_blocks());

  const bool driver_centric =
      cfg_.backend == ServicingBackendKind::DriverCentric;
  SimTime t = driver_centric ? driver_pass() : gpu_driven_pass();

  if (adaptive_) {
    adaptive_->observe_batch(counters_.evictions - evictions_before_pass_);
  }

  // --- end of pass: resume at cursor time ---
  d_.eq->schedule_at(t, [this, driver_centric] {
    processing_ = false;
    // Once-policy end-of-run replay belongs to the batched path (the
    // GPU-driven body resumes warps itself after every drain).
    if (driver_centric && cfg_.replay_policy == ReplayPolicyKind::Once &&
        d_.fb->empty() && d_.gpu->has_stalled_warps()) {
      prof_.add(CostCategory::ReplayPolicy, cm_.replay_issue);
      ++counters_.replays_issued;
      SimTime fire_at = std::max(d_.eq->now() + cm_.replay_issue,
                                 migrations_inflight_until_);
      trace_instant(TraceCategory::Replay, "replay.once", d_.eq->now(),
                    counters_.replays_issued, "fire_at", fire_at);
      d_.eq->schedule_at(fire_at, [this] { d_.gpu->replay(); });
    }
    if (!d_.fb->empty()) run_pass();
  });
}

SimTime Driver::driver_pass() {
  SimTime t = d_.eq->now() + cm_.pass_overhead;
  if (counters_.passes == 1 && cm_.driver_cold_start > 0) {
    // First-fault path: channels, VA-space structures, cold caches.
    t += cm_.driver_cold_start;
    prof_.add(CostCategory::ServiceOther, cm_.driver_cold_start);
  }

  // Access-counter notifications (extension path; zero cost when disabled).
  t = drain_access_counters(t);

  // --- pre-processing ---
  const std::uint64_t pass_id = counters_.passes;
  SimTime t0 = t;
  Preprocessor::fetch(*d_.fb, cfg_.batch_size, cm_, t, batch_,
                      cfg_.fetch_policy, &queue_latency_, d_.tracer);
  const FaultBatch& batch = batch_;
  counters_.faults_fetched += batch.fetched;
  counters_.duplicate_faults += batch.duplicates;
  counters_.polls += batch.polls;
  counters_.queue_latency_clamped += batch.latency_clamps;
  prof_.add(CostCategory::PreProcess, t - t0);
  trace_span(TraceCategory::Fetch, "driver.fetch", t0, t, pass_id, "fetched",
             batch.fetched, "dups", batch.duplicates, "bins",
             batch.bins.size());

  if (!batch.empty()) {
    ++counters_.batches;
    // --- service, one VABlock bin at a time (the ordering authority) ---
    for (const auto& bin : batch.bins) {
      SimTime tb = t;
      t = service_bin(bin, t);
      trace_span(TraceCategory::Service, "service.bin", tb, t, bin.block,
                 "entries", bin.fault_entries, "pages", bin.faulted.count(),
                 "pass", pass_id);
      if (effective_replay_policy(t) == ReplayPolicyKind::Block) {
        t = issue_replay(t);
      }
    }
    // --- end-of-batch replay policy ---
    switch (effective_replay_policy(t)) {
      case ReplayPolicyKind::Block:
        break;  // replays already issued per block
      case ReplayPolicyKind::Batch:
        t = issue_replay(t, batch.bins.size());
        break;
      case ReplayPolicyKind::BatchFlush:
        t = flush_buffer(t);
        t = issue_replay(t, batch.bins.size());
        break;
      case ReplayPolicyKind::Once:
        break;  // issued by run_pass's continuation at pass end
    }
  }
  return t;
}

SimTime Driver::service_bin(const FaultBatch::Bin& bin, SimTime t) {
  VaBlock& blk = d_.as->block(bin.block);
  ++counters_.blocks_serviced;
  blk.service_locked = true;

  SimTime t0 = t;
  t += cm_.service_block_overhead;

  // Split stale (already mapped — e.g. a Batch-policy leftover) from
  // pages that genuinely need service, one word at a time: only `need`
  // outlives the split.
  PageMask need;
  std::uint32_t nfaulted = 0;
  std::uint32_t nstale = 0;
  for (std::uint32_t w = 0; w < PageMask::kWords; ++w) {
    const std::uint64_t f = bin.faulted.word(w);
    const std::uint64_t mapped =
        blk.gpu_resident.word(w) | blk.remote_mapped.word(w);
    nfaulted += static_cast<std::uint32_t>(std::popcount(f));
    nstale += static_cast<std::uint32_t>(std::popcount(f & mapped));
    need.set_word_bits(w, f & ~mapped);
  }
  counters_.stale_faults += nstale;

  if (hazards_active()) {
    // Stale faults and intra-bin duplicates are the re-fault signature a
    // replay storm leaves; feed them to the watchdog.
    std::uint64_t refaults =
        nstale + (bin.fault_entries > nfaulted ? bin.fault_entries - nfaulted
                                               : 0);
    if (refaults > 0) t = storm_observe(blk.id, refaults, t);
  }

  const std::uint32_t nneed = nfaulted - nstale;
  counters_.faults_serviced += nneed;

  // Power9-style base pages: one fault covers the whole host page, so the
  // service granularity widens to aligned base-page groups (§IV-A / [14]).
  // The widened remainder is accounted separately so fault conservation
  // (fetched == serviced + duplicate + stale) holds at every granularity.
  const std::uint32_t base = d_.gpu->config().fault_granularity_pages;
  if (base > 1 && nneed > 0) {
    PageMask widened;
    for (std::uint32_t i : need.set_bits()) {
      std::uint32_t lo = i - i % base;
      std::uint32_t hi = std::min(lo + base, blk.num_pages);
      widened.set_range(lo, hi);
    }
    PageMask fill = widened.and_not(blk.gpu_resident | blk.remote_mapped)
                        .and_not(need);
    counters_.base_page_fill_pages += fill.count();
    need |= fill;
  }
  prof_.add(CostCategory::ServiceOther, t - t0);

  // Fault log: one record per unique fault, in driver processing order.
  if (log_.enabled()) {
    for (std::uint32_t i : bin.faulted.set_bits()) {
      const bool stale = blk.gpu_resident.test(i) || blk.remote_mapped.test(i);
      log_.record(FaultLogEntry{0, t, FaultLogKind::Fault, blk.first_page + i,
                                blk.id, blk.range, stale});
    }
  }

  // Fault-driven policy touch (the only residency signal the stock policy
  // gets, paper §V-A1). Emitted at each exit path AFTER backing is
  // ensured, never before: this used to fire ahead of ensure_backing's
  // on_block_allocated, so a block's first demand fault touched a
  // still-untracked block and was dropped — the stock LRU masked it
  // (allocate and touch both mean "move to MRU") but CLOCK/2Q would have
  // seen every freshly faulted block as never-demanded (PR-10 audit).
  const auto touch_faulted = [&] {
    if (nfaulted > 0) eviction_->on_block_touched(blk.id);
  };
  const auto finish_early = [&] {
    touch_faulted();
    blk.service_locked = false;
    return t;
  };

  if (nneed == 0) return finish_early();

  const MemAdvise& advise = d_.as->range(blk.range).advise;

  // --- thrashing mitigation (perf_thrashing module) ---
  ThrashingDetector::Advice thrash_advice =
      thrashing_.on_fault(blk.id, t);
  if (thrash_advice == ThrashingDetector::Advice::Pin) {
    // Stop bouncing the data: serve this block's faults via remote
    // mapping until the thrash score decays.
    t = map_remote(blk, need, t, CostCategory::ServiceMap);
    counters_.thrash_pinned_pages += need.count();
    return finish_early();
  }
  if (thrash_advice == ThrashingDetector::Advice::Throttle) {
    t += cfg_.thrashing.throttle_delay;
    prof_.add(CostCategory::ServiceOther, cfg_.thrashing.throttle_delay);
    ++counters_.thrash_throttles;
  }

  // --- remote mapping (paper §III-A behaviour 2): map, never migrate ---
  if (advise.remote_map) {
    t = map_remote(blk, need, t, CostCategory::ServiceMap);
    counters_.pages_remote_mapped += need.count();
    return finish_early();
  }

  // --- prefetch computation (density-tree policy) ---
  // Under the Markov policy the tree stage — including its stage-1
  // big-page upgrade — is off entirely: demand stays 4 KB-exact and all
  // speculation happens in markov_step below, shaped by the observed fault
  // footprint instead of by local density.
  PageMask prefetch;
  if (cfg_.prefetch == PrefetchMode::Tree ||
      cfg_.prefetch == PrefetchMode::Adaptive) {
    t0 = t;
    const Prefetcher::Result pres = Prefetcher::compute_fast(
        blk, need, cfg_.big_page_upgrade, effective_threshold());
    // A remote-mapped page (thrash Pin, advise.remote_map, no-victim
    // degradation) stays zero-copy: migrating it too would leave it both
    // remote and resident.
    prefetch = pres.prefetch.and_not(blk.remote_mapped);
    t += cm_.prefetch_compute_per_block +
         static_cast<SimDuration>(pres.tree_updates) *
             cm_.prefetch_compute_per_fault;
    prof_.add(CostCategory::ServiceOther, t - t0);
    trace_span(TraceCategory::Prefetch, "prefetch.compute", t0, t, blk.id,
               "tree_updates", pres.tree_updates, "pages", prefetch.count(),
               "threshold", effective_threshold());
  }
  PageMask to_populate = need | prefetch;

  // --- physical backing (may evict, may restart) ---
  PageMask unbacked;
  t = ensure_backing(blk, to_populate, t, unbacked,
                     /*speculative=*/prefetch.any());

  if (unbacked.any()) {
    // Graceful degradation: some pages could not be backed because no
    // eviction victim was eligible. Instead of failing the run, serve the
    // faulted pages via remote (host) mapping — slower but correct — and
    // drop the prefetch candidates on those pages.
    PageMask degraded = need & unbacked;
    to_populate = to_populate.and_not(unbacked);
    prefetch = prefetch.and_not(unbacked);
    if (degraded.any()) {
      const SimTime tr = t;
      t = map_remote(blk, degraded, t, CostCategory::ErrorRecovery);
      counters_.degraded_remote_pages += degraded.count();
      trace_span(TraceCategory::Recovery, "recover.degraded_remote", tr, t,
                 blk.id, "pages", degraded.count());
      log_pages(blk, degraded, t, FaultLogKind::Hazard);
    }
    if (to_populate.none()) return finish_early();
  }
  // The faulted block is backed and tracked from here on: record the demand
  // touch before any speculative allocations this pass may append.
  touch_faulted();

  t = zero_fill(blk, to_populate, t);

  // --- migrate host-resident data, coalesced into contiguous runs ---
  // Only demand migration pipelines or read-duplicates, so it is not
  // populate()'s.
  PageMask migrate = to_populate & blk.cpu_resident & blk.ever_populated;
  if (migrate.any()) {
    t0 = t;
    SimDuration recovery = 0;
    auto run_bytes = runs_to_bytes(migrate);
    if (cfg_.pipelined_migrations) {
      // Issue asynchronously: the cursor advances only by the CPU-side
      // submission cost; the copy's completion gates the next replay.
      SimTime done = robust_copy(Direction::HostToDevice, t, run_bytes).done;
      migrations_inflight_until_ =
          std::max(migrations_inflight_until_, done);
      t += static_cast<SimDuration>(run_bytes.size()) *
           cm_.migrate_issue_per_run;
    } else {
      CopyOutcome rc = robust_copy(Direction::HostToDevice, t, run_bytes);
      t = rc.done;
      recovery = rc.recovery;
    }
    if (advise.read_mostly &&
        bin.strongest_access == FaultAccessType::Read) {
      // Read-only duplication (paper §III-A behaviour 3): both copies stay
      // valid; a later GPU write collapses it.
      blk.read_duplicated |= migrate;
      counters_.pages_duplicated += migrate.count();
    } else {
      blk.cpu_resident &= ~migrate;  // paged migration unmaps the source
    }
    counters_.pages_migrated_h2d += migrate.count();
    prof_.add(CostCategory::ServiceMigrate, (t - t0) - recovery);
  }

  t = map_local(blk, to_populate, t);

  // Prefetch bookkeeping.
  counters_.pages_prefetched += prefetch.count();
  blk.prefetched_unused |= prefetch;
  log_pages(blk, prefetch, t, FaultLogKind::Prefetch);
  t = maybe_coalesce(blk, t);

  // --- learned prefetch (Markov policy): observe the transition, then
  // speculatively populate the confident predictions. The serviced block
  // stays locked so the speculation can never evict it.
  if (markov_) t = markov_step(bin, t);

  blk.service_locked = false;
  return t;
}

SimTime Driver::markov_step(const FaultBatch::Bin& bin, SimTime t) {
  const VaBlockId serviced_block = bin.block;
  markov_->observe(serviced_block);
  ++counters_.markov_observes;
  // One table lookup + update per serviced bin: charge the same per-fault
  // rate as a tree-node update.
  t += cm_.prefetch_compute_per_fault;
  prof_.add(CostCategory::ServiceOther, cm_.prefetch_compute_per_fault);

  // Online accuracy feedback: under the Markov policy every prefetched page
  // is the predictor's, so the run-wide issued/wasted counters are its own
  // hit-rate ledger. Once more than a quarter of a meaningful sample was
  // evicted before first use, emissions mute (observation continues for
  // free) — unpredictable access converges toward prefetch-off instead of
  // paying for misspeculation. The ledger only charges under memory
  // pressure, which is exactly when misspeculation costs anything.
  if (counters_.pages_prefetched > 256 &&
      counters_.prefetched_evicted_unused * 4 > counters_.pages_prefetched) {
    return t;
  }

  // --- (a) intra-block stride continuation --------------------------------
  // A bin whose faulted pages sit at one constant gap is a strided warp
  // mid-block; its next faults are that gap continued. Bin-local evidence
  // only — deterministic, and immune to the cross-block interleave that
  // warp scheduling imposes on the serviced-bin sequence.
  VaBlock& blk = d_.as->block(serviced_block);
  const std::uint32_t nbits = bin.faulted.count();
  if (nbits >= 3) {
    std::uint32_t prev = bin.faulted.find_next_set(0);
    std::uint32_t gap = 0;
    bool constant = true;
    for (std::uint32_t p = bin.faulted.find_next_set(prev + 1);
         p < blk.num_pages; p = bin.faulted.find_next_set(p + 1)) {
      const std::uint32_t g = p - prev;
      if (gap == 0) {
        gap = g;
      } else if (g != gap) {
        constant = false;
        break;
      }
      prev = p;
    }
    if (constant && gap > 0) {
      PageMask ahead;
      std::uint64_t emit =
          static_cast<std::uint64_t>(nbits) * markov_->config().degree;
      for (std::uint64_t p = prev + gap; p < blk.num_pages && emit > 0;
           p += gap, --emit) {
        ahead.set(static_cast<std::uint32_t>(p));
      }
      if (ahead.any()) {
        ++counters_.markov_predictions;
        SimTime t0 = t;
        t += cm_.prefetch_compute_per_block;
        prof_.add(CostCategory::ServiceOther, t - t0);
        t = populate_speculative(blk, ahead, t);
      }
    }
  }

  // --- (b) cross-block Markov chain ---------------------------------------
  std::array<VaBlockId, MarkovPrefetcher::kMaxDegree> pred{};
  const std::size_t n = markov_->predict(serviced_block, pred);
  for (std::size_t i = 0; i < n; ++i) {
    const VaBlockId nb_id = pred[i];
    // Chains stop at the first unusable link: later links are relative to
    // this one, so skipping it would speculate on a gap we never verified.
    if (nb_id >= d_.as->num_blocks()) break;
    VaBlock& nb = d_.as->block(nb_id);
    if (!nb.valid() || nb.service_locked) break;
    if (d_.as->range(nb.range).advise.remote_map) break;
    ++counters_.markov_predictions;
    // The emission itself advances the history (no training): a prefetch
    // hit never faults, and the next real fault's delta must be measured
    // from where the stream actually is.
    markov_->advance(nb_id);
    SimTime t0 = t;
    t += cm_.prefetch_compute_per_block;  // prediction + population setup
    prof_.add(CostCategory::ServiceOther, t - t0);
    // Footprint projection: speculate the same page offsets the triggering
    // bin faulted on, not the whole block. A dense sweep projects dense
    // masks, a strided kernel projects exactly its stride set, and a wrong
    // prediction wastes at most one bin's worth of traffic.
    t = populate_speculative(nb, bin.faulted, t);
  }
  return t;
}

SimTime Driver::populate_speculative(VaBlock& blk, const PageMask& shape,
                                     SimTime t) {
  PageMask window;
  window.set_range(0, blk.num_pages);
  const PageMask want =
      (shape & window).and_not(blk.gpu_resident).and_not(blk.remote_mapped);
  const SimTime t0 = t;
  // speculative=false on purpose: the tree path's root-granularity
  // speculative backing is exactly the 2 MB-per-prediction amplification
  // the paper blames for "prefetching aggravates oversubscription". The
  // learned path backs its projected footprint at demand-chunk granularity
  // instead, so a speculation costs what the equivalent demand would.
  // Advisory: pages that cannot be backed are simply not speculated on.
  const Population pop = populate(blk, want, t, /*speculative=*/false);
  if (pop.pages.none()) return t;
  counters_.pages_prefetched += pop.pages.count();
  ++counters_.markov_blocks_prefetched;
  blk.prefetched_unused |= pop.pages;
  log_pages(blk, pop.pages, pop.mapped_at, FaultLogKind::Prefetch);
  trace_span(TraceCategory::Prefetch, "prefetch.markov", t0, t, blk.id,
             "pages", pop.pages.count());
  // Deliberately NO on_block_touched: ensure_backing already emitted
  // on_block_allocated, and speculation is not a use — CLOCK/2Q must see
  // never-demanded prefetch as first-choice eviction fodder.
  return t;
}

Driver::Population Driver::populate(VaBlock& blk, PageMask want, SimTime& t,
                                    bool speculative) {
  if (want.none()) return {};
  // The stride path speculates on the block being serviced, which is
  // already locked; restore rather than clear so service_bin's unlock stays
  // the single release point for that block.
  const bool was_locked = blk.service_locked;
  blk.service_locked = true;
  PageMask unbacked;
  t = ensure_backing(blk, want, t, unbacked, speculative);
  Population pop{want.and_not(unbacked)};
  if (pop.pages.any()) {
    t = zero_fill(blk, pop.pages, t);
    const PageMask migrate = pop.pages & blk.cpu_resident & blk.ever_populated;
    if (migrate.any()) {
      const SimTime t0 = t;
      const CopyOutcome rc =
          robust_copy(Direction::HostToDevice, t, runs_to_bytes(migrate));
      t = rc.done;
      blk.cpu_resident &= ~migrate;  // paged migration unmaps the source
      counters_.pages_migrated_h2d += migrate.count();
      prof_.add(CostCategory::ServiceMigrate, (t - t0) - rc.recovery);
    }
    t = map_local(blk, pop.pages, t);
    pop.mapped_at = t;
    t = maybe_coalesce(blk, t);
  }
  blk.service_locked = was_locked;
  return pop;
}

SimTime Driver::zero_fill(VaBlock& blk, const PageMask& pages, SimTime t,
                          std::uint32_t wlo, std::uint32_t whi) {
  // Count and mark the never-populated pages in one pass.
  std::uint32_t zeroed = 0;
  for (std::uint32_t w = wlo; w < whi; ++w) {
    const std::uint64_t z = pages.word(w) & ~blk.ever_populated.word(w);
    zeroed += static_cast<std::uint32_t>(std::popcount(z));
    blk.ever_populated.set_word_bits(w, z);
  }
  if (zeroed == 0) return t;
  const SimTime t0 = t;
  t = d_.dma->zero_fill(t, static_cast<std::uint64_t>(zeroed) * kPageSize);
  counters_.pages_zeroed += zeroed;
  prof_.add(CostCategory::ServiceZero, t - t0);
  return t;
}

SimTime Driver::map_local(VaBlock& blk, const PageMask& pages, SimTime t) {
  blk.gpu_resident |= pages;
  d_.gpu->on_pages_mapped(blk.id, pages);
  const SimDuration cost =
      cm_.map_membar +
      static_cast<SimDuration>(pages.count()) * cm_.map_per_page;
  prof_.add(CostCategory::ServiceMap, cost);
  return t + cost;
}

SimTime Driver::map_remote(VaBlock& blk, const PageMask& pages, SimTime t,
                           CostCategory category) {
  blk.remote_mapped |= pages;
  d_.gpu->on_pages_mapped(blk.id, pages);
  const SimDuration cost =
      cm_.map_membar +
      static_cast<SimDuration>(pages.count()) * cm_.map_per_page;
  prof_.add(category, cost);
  return t + cost;
}

void Driver::log_pages(const VaBlock& blk, const PageMask& pages, SimTime t,
                       FaultLogKind kind) {
  if (!log_.enabled()) return;
  for (std::uint32_t i : pages.set_bits()) {
    log_.record(FaultLogEntry{0, t, kind, blk.first_page + i, blk.id,
                              blk.range, false});
  }
}

SimTime Driver::ensure_backing(VaBlock& blk, const PageMask& to_populate,
                               SimTime t, PageMask& unbacked,
                               bool speculative) {
  // Victim eligibility is stable for the duration of this call (the
  // faulting block is fixed and no service_locked flag flips), so the
  // eviction policy may cache ineligibility verdicts between victim scans.
  eviction_->begin_victim_round();
  PageMask missing = to_populate.and_not(blk.backing.backed_pages());
  if (missing.any()) {
    // Root-chunk path: chunking disabled, memory plentiful, or the demand
    // covers the whole block anyway — the real driver, too, hands out a
    // whole root chunk whenever it can. Speculative (prefetch-driven)
    // demand also backs at root granularity, mirroring the real prefetch
    // path's block-granularity population: under pressure this keeps
    // demanding 2 MB that may evict before use, while unprefetched
    // scattered demand gets cheap sub-chunk backing — the paper's
    // "disabling prefetching helps when oversubscribed" effect.
    // Byte-identical to the historical whole-block backing.
    const bool whole_block_demand = missing.count() == blk.num_pages;
    if (!blk.backing.fragmented() &&
        (!cfg_.chunking.enabled || whole_block_demand || speculative ||
         pressure() == Pressure::None)) {
      t = back_block_root(blk, to_populate, t, unbacked);
    } else {
      t = back_block_chunks(blk, missing, t, unbacked);
    }
  }
  eviction_->end_victim_round();
  return t;
}

SimTime Driver::back_block_root(VaBlock& blk, const PageMask& to_populate,
                                SimTime t, PageMask& unbacked) {
  if (!alloc_backing_bytes(blk, kVaBlockSize, kVaBlockSize, t)) {
    // No eligible victim (every resident block is the faulting one or a
    // locked one): leave the block unbacked and let the caller degrade its
    // pages to remote mapping.
    unbacked |= to_populate;
    return t;
  }
  blk.backing.set_root();
  eviction_->on_block_allocated(blk.id);
  return t;
}

SimTime Driver::back_block_chunks(VaBlock& blk, const PageMask& missing,
                                  SimTime t, PageMask& unbacked) {
  const bool fine = pressure() == Pressure::Fine;
  bool first_chunk = !blk.backing.any();

  // Plan the chunk shape first so eviction requests can batch the whole
  // remainder: one 64 KB chunk per big-page group wholly demanded (or any
  // demand above the fine watermark) with no existing 4 KB backing there;
  // 4 KB chunks for partially-wanted groups under fine pressure and for
  // groups that already fragmented down to base chunks.
  std::uint32_t plan_big = 0;
  PageMask plan_base;
  for (std::uint32_t g = 0; g < kBigPagesPerBlock; ++g) {
    const std::uint32_t lo = g * kPagesPerBigPage;
    PageMask group;
    group.set_range(lo, lo + kPagesPerBigPage);
    const PageMask want = missing & group;
    if (want.none()) continue;
    if (!blk.backing.has_base_in(g) &&
        (!fine || want.count() == kPagesPerBigPage)) {
      plan_big |= std::uint32_t{1} << g;
    } else {
      plan_base |= want;
    }
  }
  std::uint64_t remaining =
      static_cast<std::uint64_t>(std::popcount(plan_big)) * kBigPageSize +
      static_cast<std::uint64_t>(plan_base.count()) * kPageSize;

  // Allocate in ascending page order (deterministic trace + eviction order).
  for (std::uint32_t g = 0; g < kBigPagesPerBlock && remaining > 0; ++g) {
    const bool big = (plan_big >> g) & 1u;
    const std::uint32_t lo = g * kPagesPerBigPage;
    const std::uint32_t hi = lo + kPagesPerBigPage;
    if (big) {
      if (!alloc_backing_bytes(blk, kBigPageSize, remaining, t)) {
        unbacked |= missing.and_not(blk.backing.backed_pages());
        return t;
      }
      blk.backing.set_big(g);
      remaining -= kBigPageSize;
      if (first_chunk) {
        eviction_->on_block_allocated(blk.id);
        ++counters_.blocks_split;
        first_chunk = false;
      }
    } else {
      for (std::uint32_t p = plan_base.find_next_set(lo); p < hi;
           p = plan_base.find_next_set(p + 1)) {
        if (!alloc_backing_bytes(blk, kPageSize, remaining, t)) {
          unbacked |= missing.and_not(blk.backing.backed_pages());
          return t;
        }
        blk.backing.set_base(p);
        remaining -= kPageSize;
        if (first_chunk) {
          eviction_->on_block_allocated(blk.id);
          ++counters_.blocks_split;
          first_chunk = false;
        }
      }
    }
  }
  return t;
}

bool Driver::alloc_backing_bytes(VaBlock& blk, std::uint64_t bytes,
                                 std::uint64_t plan_remaining, SimTime& t) {
  std::uint32_t transient_failures = 0;
  for (;;) {
    auto res = d_.pma->alloc_bytes(bytes, t);
    if (res.ok) {
      SimDuration cost = cm_.pma_cached_alloc;
      if (res.rm_calls > 0) {
        // The RM round trip is latency-bound and variable (§III-D).
        double jittered = rng_.next_gaussian(
            static_cast<double>(cm_.pma_rm_call),
            static_cast<double>(cm_.pma_rm_call_stddev));
        double floor = static_cast<double>(cm_.pma_rm_call) / 3.0;
        cost = static_cast<SimDuration>(std::max(jittered, floor));
      }
      if (bytes < kVaBlockSize) {
        // Carving a sub-chunk splits a root chunk in the PMA tree.
        cost += cm_.pma_split;
        ++counters_.subchunk_allocs;
      }
      t += cost;
      prof_.add(CostCategory::ServicePmaAlloc, cost);
      return true;
    }
    if (res.transient) {
      pma_backoff(blk.id, transient_failures, t);
      continue;
    }
    // Exhausted: evict and retry. Every eviction drops the faulting
    // block's lock while the victim is held, restarting this fault path
    // (§V-A2) — the penalty recurs per eviction.
    if (!evict_victim(t, blk.id, plan_remaining)) {
      ++counters_.eviction_victim_unavailable;
      return false;
    }
    t += cm_.service_restart;
    prof_.add(CostCategory::Eviction, cm_.service_restart);
    ++counters_.service_restarts;
  }
}

void Driver::pma_backoff(VaBlockId block, std::uint32_t& failures,
                         SimTime& t) {
  // Transient RM failure (injected hazard): exponential backoff with a
  // capped exponent before the caller retries the call.
  const std::uint32_t shift = std::min(failures, cfg_.recovery.pma_backoff_cap);
  const SimDuration backoff = cfg_.recovery.pma_backoff_base << shift;
  trace_span(TraceCategory::Recovery, "recover.pma_backoff", t, t + backoff,
             block, "attempt", failures + 1);
  t += backoff;
  prof_.add(CostCategory::ErrorRecovery, backoff);
  ++counters_.pma_alloc_retries;
  ++failures;
}

SimTime Driver::maybe_coalesce(VaBlock& blk, SimTime t) {
  if (!cfg_.chunking.enabled) return t;
  if (!blk.backing.fragmented()) return t;
  if (blk.num_pages != kPagesPerBlock) return t;  // partial blocks stay split
  if (blk.backing.backed_bytes() != kVaBlockSize) return t;
  // Every page is chunk-backed, so the sub-chunks hold exactly one root
  // chunk's bytes: re-merge them — PMA accounting is unchanged, but the
  // block becomes a whole-block eviction victim again.
  const std::uint32_t merged = blk.backing.chunk_count();
  blk.backing.set_root();
  const SimDuration cost =
      static_cast<SimDuration>(merged) * cm_.pma_coalesce;
  t += cost;
  prof_.add(CostCategory::ServicePmaAlloc, cost);
  ++counters_.blocks_coalesced;
  trace_instant(TraceCategory::Service, "pma.coalesce", t, blk.id, "chunks",
                merged);
  return t;
}

Driver::Pressure Driver::pressure() const {
  const double frac = d_.pma->free_fraction();
  if (frac < cfg_.chunking.fine_watermark) return Pressure::Fine;
  if (frac < cfg_.chunking.split_watermark ||
      d_.pma->bytes_free() < kVaBlockSize) {
    // Below the watermark — or the GPU is simply too small to ever carve a
    // whole root chunk.
    return Pressure::Split;
  }
  return Pressure::None;
}

bool Driver::evict_victim(SimTime& t, VaBlockId faulting_block,
                          std::uint64_t want_bytes) {
  // Honor cudaMemAdvise preferred-location hints: evict non-preferred
  // blocks first (Preferred victims), fall back to anything eligible. The
  // single classified scan replaces the previous two-pass
  // (not_preferred-then-base_ok) search with identical victim choice.
  auto classify = [&](VaBlockId id) {
    if (id == faulting_block) return VictimEligibility::Ineligible;
    const VaBlock& b = d_.as->block(id);
    if (b.service_locked) return VictimEligibility::Ineligible;
    return d_.as->range(b.range).advise.preferred_location_gpu
               ? VictimEligibility::Eligible
               : VictimEligibility::Preferred;
  };
  std::optional<VaBlockId> v = eviction_->pick_victim_classified(classify);
  if (!v) {
    trace_instant(TraceCategory::Eviction, "evict.no_victim", t,
                  faulting_block, "scanned", eviction_->last_scan_length());
    return false;  // caller degrades to remote mapping
  }

  SimTime t0 = t;
  SimDuration recovery = 0;
  VaBlock& vb = d_.as->block(*v);
  const bool whole = vb.backing.root();
  // Chunk-granularity eviction: a root-backed victim is evicted whole (the
  // historical behaviour); a fragmented victim frees resident sub-chunks in
  // ascending page order until the caller's demand is covered, and keeps
  // its LRU position for the next call if chunks remain.
  PageMask freed_pages;
  const ChunkTree::TakeResult taken =
      vb.backing.take_chunks(want_bytes, freed_pages);
  // The victim holds backing (the policy tracks only backed blocks), so
  // the span below covers at least one page.
  assert(taken.chunks > 0);
  // Every mask step below reads and writes only the storage words the freed
  // chunks span: one word for the GPU-driven path's single 4 KB chunk, all
  // eight for a root chunk. The other words of `writeback` stay empty.
  const std::uint32_t wlo = taken.lo / PageMask::kWordBits;
  const std::uint32_t whi =
      (taken.hi + PageMask::kWordBits - 1) / PageMask::kWordBits;
  PageMask writeback;
  std::uint32_t n_resident = 0;
  std::uint32_t n_writeback = 0;
  std::uint32_t n_unused = 0;
  for (std::uint32_t w = wlo; w < whi; ++w) {
    const std::uint64_t freed = freed_pages.word(w);
    const std::uint64_t res = vb.gpu_resident.word(w) & freed;
    // Device-to-host writeback: needed for every resident page whose host
    // copy is invalid (paged migration unmapped it). Read-duplicated pages
    // still have a valid host copy and skip the transfer.
    const std::uint64_t wb = res & ~vb.cpu_resident.word(w);
    writeback.set_word_bits(w, wb);
    n_resident += static_cast<std::uint32_t>(std::popcount(res));
    n_writeback += static_cast<std::uint32_t>(std::popcount(wb));
    n_unused += static_cast<std::uint32_t>(
        std::popcount(vb.prefetched_unused.word(w) & freed));
  }

  t += cm_.evict_overhead;
  counters_.writebacks_avoided += n_resident - n_writeback;
  if (n_writeback > 0) {
    CopyOutcome rc = robust_copy(Direction::DeviceToHost, t,
                                 runs_to_bytes(writeback));
    t = rc.done;
    recovery = rc.recovery;
  }
  counters_.pages_evicted += n_writeback;
  counters_.prefetched_evicted_unused += n_unused;

  // Resident pages move back to the host; no freed page keeps a duplicate,
  // a dirty bit or an unused-prefetch mark.
  for (std::uint32_t w = wlo; w < whi; ++w) {
    const std::uint64_t freed = freed_pages.word(w);
    const std::uint64_t res = vb.gpu_resident.word(w) & freed;
    vb.gpu_resident.reset_word_bits(w, res);
    vb.cpu_resident.set_word_bits(w, res);
    vb.read_duplicated.reset_word_bits(w, freed);
    vb.dirty.reset_word_bits(w, freed);
    vb.prefetched_unused.reset_word_bits(w, freed);
  }
  t += cm_.map_membar +
       static_cast<SimDuration>(n_resident) * cm_.unmap_per_page;
  d_.gpu->invalidate_tlbs();
  thrashing_.on_eviction(vb.id, t);
  ++vb.eviction_count;
  d_.pma->release_bytes(taken.bytes);
  if (vb.backing.any()) {
    ++counters_.partial_evictions;
  } else {
    eviction_->on_block_evicted(*v);
  }
  if (!whole) counters_.chunks_evicted += taken.chunks;
  ++counters_.evictions;

  if (log_.enabled()) {
    log_.record(FaultLogEntry{0, t, FaultLogKind::Eviction,
                              vb.first_page + taken.lo, vb.id, vb.range,
                              false});
  }
  prof_.add(CostCategory::Eviction, (t - t0) - recovery);
  trace_span(TraceCategory::Eviction, "evict.victim", t0, t, *v,
             "chunks", taken.chunks, "writeback_pages", n_writeback,
             "scanned", eviction_->last_scan_length());
  return true;
}

SimTime Driver::service_cpu_access(VirtPage first, std::uint64_t npages,
                                   bool write) {
  SimTime t = d_.eq->now();
  for_each_block_window(*d_.as, first, npages, [&](VaBlock& blk,
                                                   const PageMask& window) {
    // Pages valid on the host already (resident or duplicated) are free.
    PageMask gpu_only = (blk.gpu_resident & window).and_not(blk.cpu_resident);
    if (gpu_only.none() && !write) return;

    SimTime t0 = t;
    SimDuration recovery = 0;
    if (gpu_only.any()) {
      t += cm_.service_block_overhead;  // CPU fault handling bookkeeping
      CopyOutcome rc = robust_copy(Direction::DeviceToHost, t,
                                   runs_to_bytes(gpu_only));
      t = rc.done;
      recovery = rc.recovery;
      blk.cpu_resident |= gpu_only;
      counters_.cpu_faults_serviced += gpu_only.count();
    }
    if (write) {
      // Host writes invalidate every GPU copy in the window.
      PageMask gpu_copies = blk.gpu_resident & window;
      if (gpu_copies.any()) {
        blk.gpu_resident &= ~gpu_copies;
        t += cm_.map_membar + static_cast<SimDuration>(gpu_copies.count()) *
                                  cm_.unmap_per_page;
        d_.gpu->invalidate_tlbs();
        blk.read_duplicated &= ~window;
        blk.dirty &= ~window;
      }
      blk.ever_populated |= window;
    }
    prof_.add(CostCategory::ServiceMigrate, (t - t0) - recovery);
  });
  return t;
}

SimTime Driver::prefetch_pages(VirtPage first, std::uint64_t npages) {
  SimTime t = d_.eq->now();
  for_each_block_window(*d_.as, first, npages, [&](VaBlock& blk,
                                                   const PageMask& window) {
    // Remote-mapped pages are pinned to the host by design; bulk prefetch
    // must not migrate them. Never-populated pages are zero-filled on the
    // GPU, as cudaMemPrefetchAsync populates them there. Bulk prefetch is
    // advisory: pages that cannot be backed (no eligible victim)
    // are simply skipped.
    const PageMask to_move =
        window.and_not(blk.gpu_resident).and_not(blk.remote_mapped);
    const SimTime t0 = t;
    const PageMask moved =
        populate(blk, to_move, t, /*speculative=*/true).pages;
    if (moved.none()) return;
    counters_.prefetch_async_pages += moved.count();
    trace_span(TraceCategory::Prefetch, "prefetch.bulk", t0, t, blk.id,
               "pages", moved.count());
    // No on_block_touched here (PR-10 bugfix audit): speculative backing
    // emits exactly on_block_allocated (inside ensure_backing). Bulk
    // prefetch is speculation, not a use — the stock LRU masked the
    // difference (allocation already MRU-inserts), but CLOCK/2Q would have
    // promoted never-demanded data.
  });
  return t;
}

SimTime Driver::issue_replay(SimTime t, std::uint64_t groups) {
  SimDuration cost = cm_.replay_issue;
  if (groups > 1) {
    // Replaying a batch that spans many VA-block groups costs extra driver
    // bookkeeping per group (§III-E); zero per-group cost collapses this
    // to the historical flat charge.
    cost += static_cast<SimDuration>(groups - 1) * cm_.replay_per_group;
  }
  prof_.add(CostCategory::ReplayPolicy, cost);
  ++counters_.replays_issued;
  SimTime t0 = t;
  t += cost;
  // Pipelined migrations: warps must not resume before their data lands,
  // so the replay notification trails the last outstanding copy. The
  // driver itself keeps working — only the replay waits.
  SimTime fire_at = std::max(t, migrations_inflight_until_);
  trace_span(TraceCategory::Replay, "replay.issue", t0, t,
             counters_.replays_issued, "fire_at", fire_at);
  d_.eq->schedule_at(fire_at, [this] { d_.gpu->replay(); });
  return t;
}

SimTime Driver::flush_buffer(SimTime t) {
  SimDuration cost = cm_.flush_base + cm_.flush_per_entry * d_.fb->size();
  prof_.add(CostCategory::ReplayPolicy, cost);
  ++counters_.buffer_flushes;
  trace_span(TraceCategory::Replay, "replay.flush", t, t + cost,
             counters_.buffer_flushes, "pending_entries", d_.fb->size());
  t += cost;
  d_.eq->schedule_at(t, [this] {
    counters_.flushed_entries += d_.fb->flush();
  });
  return t;
}

SimTime Driver::drain_access_counters(SimTime t) {
  if (!d_.ac->enabled()) return t;
  auto notes = d_.ac->drain(~std::size_t{0});
  if (notes.empty()) return t;
  SimDuration cost =
      static_cast<SimDuration>(notes.size()) * cm_.access_notification;
  prof_.add(CostCategory::PreProcess, cost);
  counters_.access_notifications += notes.size();
  t += cost;
  for (const auto& n : notes) {
    eviction_->on_access_notification(n);
    if (cfg_.access_counter_migration) t = promote_hot_region(n, t);
  }
  return t;
}

SimTime Driver::promote_hot_region(const AccessCounterNotification& n,
                                   SimTime t) {
  VaBlock& blk = d_.as->block(n.block);
  const std::uint32_t lo = n.big_page * kPagesPerBigPage;
  if (lo >= blk.num_pages) return t;
  PageMask window;
  window.set_range(lo, std::min(lo + kPagesPerBigPage, blk.num_pages));

  // Promotion is opportunistic: hot pages that cannot be backed
  // stay remote-mapped and may promote later.
  const PageMask promoted =
      populate(blk, blk.remote_mapped & window, t, /*speculative=*/false)
          .pages;
  if (promoted.none()) return t;
  // Drop the remote view: the translation kind changed.
  blk.remote_mapped &= ~promoted;
  d_.gpu->invalidate_tlbs();
  counters_.counter_promoted_pages += promoted.count();
  eviction_->on_block_touched(blk.id);
  return t;
}

Driver::CopyOutcome Driver::robust_copy(
    Direction dir, SimTime t, std::span<const std::uint64_t> run_bytes) {
  DmaEngine::CopyResult res = d_.dma->copy_runs(dir, t, run_bytes);
  if (res.ok()) return {res.done, 0};  // fast path: hazard-free arithmetic

  // Bounded retry with exponential backoff. After dma_max_retries failed
  // rounds the copy engine is reset and the retry budget renews, so the
  // copy always eventually completes (fail rates are validated < 1).
  // Everything from the first failure report onward — backoffs, resets,
  // and the re-issued transfers themselves — is recovery time.
  SimTime recovery_start = res.done;
  SimTime cur = res.done;
  std::uint32_t attempt = 0;
  while (!res.ok()) {
    if (attempt >= cfg_.recovery.dma_max_retries) {
      cur += cfg_.recovery.dma_reset_cost;
      ++counters_.dma_engine_resets;
      attempt = 0;
    }
    cur += cfg_.recovery.dma_backoff_base << attempt;
    ++counters_.dma_retries;
    counters_.dma_runs_retried += res.failed_run_bytes.size();
    std::vector<std::uint64_t> pending = std::move(res.failed_run_bytes);
    res = d_.dma->copy_runs(dir, cur, pending);
    cur = res.done;
    ++attempt;
  }
  SimDuration recovery = cur - recovery_start;
  prof_.add(CostCategory::ErrorRecovery, recovery);
  trace_span(TraceCategory::Recovery, "recover.dma", recovery_start, cur, 0,
             "retries", counters_.dma_retries, "resets",
             counters_.dma_engine_resets);
  return {cur, recovery};
}

SimTime Driver::storm_observe(VaBlockId block, std::uint64_t refaults,
                              SimTime t) {
  StormState& st = storm_state_[block];
  if (t - st.window_start > cfg_.storm.window) {
    st.window_start = t;
    st.refaults = 0;
  }
  st.refaults += refaults;
  if (st.refaults < cfg_.storm.refault_threshold || t < storm_until_) {
    return t;
  }
  // Storm detected: escalate the replay policy to BatchFlush for the
  // cooldown and flush the buffer now, draining the duplicate entries that
  // feed the storm. Forward progress is guaranteed — the escalated policy
  // still replays every batch, so parked warps re-fault and get serviced.
  ++counters_.replay_storms;
  storm_until_ = t + cfg_.storm.cooldown;
  st.refaults = 0;
  st.window_start = t;
  trace_instant(TraceCategory::Replay, "replay.storm", t, block, "cooldown",
                cfg_.storm.cooldown);

  SimDuration cost = cm_.flush_base + cm_.flush_per_entry * d_.fb->size();
  prof_.add(CostCategory::ErrorRecovery, cost);
  ++counters_.storm_flushes;
  trace_span(TraceCategory::Recovery, "recover.storm_flush", t, t + cost,
             block, "pending_entries", d_.fb->size());
  t += cost;
  d_.eq->schedule_at(t, [this] {
    counters_.flushed_entries += d_.fb->flush();
  });
  if (log_.enabled()) {
    const VaBlock& b = d_.as->block(block);
    log_.record(FaultLogEntry{0, t, FaultLogKind::Hazard, b.first_page,
                              block, b.range, false});
  }
  return t;
}

ReplayPolicyKind Driver::effective_replay_policy(SimTime t) const {
  if (hazards_active() && t < storm_until_) {
    return ReplayPolicyKind::BatchFlush;
  }
  return cfg_.replay_policy;
}

void Driver::on_fault_dropped() {
  // Only armed under hazard injection: hazard-free runs keep the exact
  // event sequence (and end time) they had before this subsystem existed.
  if (!hazards_active() || watchdog_armed_) return;
  watchdog_armed_ = true;
  d_.eq->schedule_in(cfg_.recovery.watchdog_interval,
                     [this] { watchdog_check(); });
}

void Driver::watchdog_check() {
  watchdog_armed_ = false;
  // An active driver will replay on its own at batch end; only the
  // quiescent-but-stuck state needs a rescue.
  if (processing_ || wake_scheduled_) return;
  if (!d_.fb->empty()) {
    on_gpu_interrupt();
    return;
  }
  if (!d_.gpu->has_stalled_warps()) return;
  // Parked warps, empty buffer, idle driver: their fault entries were lost.
  // Force a replay so they re-fault (a fresh drop re-arms the watchdog).
  ++counters_.watchdog_rescues;
  ++counters_.replays_issued;
  prof_.add(CostCategory::ErrorRecovery, cm_.replay_issue);
  trace_instant(TraceCategory::Recovery, "recover.watchdog_rescue",
                d_.eq->now(), counters_.watchdog_rescues);
  SimTime fire_at = std::max(d_.eq->now() + cm_.replay_issue,
                             migrations_inflight_until_);
  d_.eq->schedule_at(fire_at, [this] { d_.gpu->replay(); });
}

}  // namespace uvmsim
