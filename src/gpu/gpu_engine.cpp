#include "gpu/gpu_engine.h"

#include <cassert>
#include <span>
#include <stdexcept>

#include "sim/annotations.h"

namespace uvmsim {

GpuEngine::GpuEngine(const Config& cfg, std::uint64_t seed, EventQueue& eq,
                     AddressSpace& as, PageTable& /*pt*/, FaultBuffer& fb,
                     AccessCounters& ac, Interconnect* link)
    : cfg_(cfg),
      eq_(&eq),
      as_(&as),
      fb_(&fb),
      ac_(&ac),
      link_(link),
      rng_(seed),
      scheduler_(cfg.num_sms, cfg.max_blocks_per_sm),
      slots_(std::size_t{cfg.num_sms} * cfg.max_blocks_per_sm),
      sm_outstanding_faults_(cfg.num_sms, 0) {
  // SimConfig::validate() rejects these before any engine is built.
  assert(cfg_.num_sms > 0 && cfg_.max_blocks_per_sm > 0 &&
         cfg_.utlb_fault_slots > 0);
  assert(cfg_.fault_granularity_pages != 0 &&
         kPagesPerBlock % cfg_.fault_granularity_pages == 0);
  pending_used_.reserve(std::size_t{cfg_.num_sms} * cfg_.utlb_fault_slots);
  sms_.reserve(cfg_.num_sms);
  for (std::uint32_t s = 0; s < cfg_.num_sms; ++s) {
    sms_.emplace_back(s, cfg_.utlb_entries);
  }
  free_slots_.reserve(slots_.size());
  for (std::size_t i = slots_.size(); i-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
}

bool GpuEngine::busy() const {
  if (!active_.empty()) return true;
  for (const auto& [stream, q] : stream_queues_) {
    if (!q.empty()) return true;
  }
  return false;
}

void GpuEngine::launch(const KernelSpec* spec,
                       std::function<void()> on_complete,
                       std::uint32_t stream) {
  if (spec == nullptr || spec->block_count() == 0) {
    throw std::invalid_argument("GpuEngine::launch: empty kernel");
  }
  if (spec->make_block &&
      (!spec->blocks.empty() || spec->warps_per_block == 0)) {
    throw std::invalid_argument(
        "GpuEngine::launch: a generated kernel needs warps_per_block and no "
        "stored blocks");
  }
  // Sized once per launch, never per step: a lane indexes its block's
  // pending mask directly.
  if (pending_.size() < as_->num_blocks()) pending_.resize(as_->num_blocks());
  stream_queues_[stream].push_back(
      PendingKernel{spec, std::move(on_complete), stream});
  try_activate_stream(stream);
}

void GpuEngine::try_activate_stream(std::uint32_t stream) {
  if (stream_busy_.contains(stream)) return;  // serialized within a stream
  auto& q = stream_queues_[stream];
  if (q.empty()) return;
  PendingKernel pk = std::move(q.front());
  q.pop_front();
  stream_busy_.insert(stream);
  activate(std::move(pk));
}

void GpuEngine::activate(PendingKernel pk) {
  std::uint64_t id = next_kernel_id_++;
  ActiveKernel& k = active_[id];
  k.id = id;
  k.spec = pk.spec;
  k.on_complete = std::move(pk.on_complete);
  k.stream = pk.stream;
  k.stats_index = stats_.size();

  KernelStats ks;
  ks.name = k.spec->name;
  ks.stream = k.stream;
  ks.launched_at = eq_->now();
  ks.work_units = k.spec->work_units;
  stats_.push_back(ks);

  k.total_warps = k.spec->total_warps();

  scheduler_.begin_grid(id, k.spec->block_count());
  eq_->schedule_in(cfg_.kernel_launch_overhead, [this] { dispatch_blocks(); });
}

void GpuEngine::dispatch_blocks() {
  for (const auto& d : scheduler_.dispatch_available()) {
    auto it = active_.find(d.grid);
    if (it == active_.end()) {
      throw std::logic_error("GpuEngine: dispatch for unknown kernel");
    }
    ActiveKernel& k = it->second;
    const std::uint32_t si = free_slots_.back();
    free_slots_.pop_back();
    BlockSlot& slot = slots_[si];
    const ThreadBlockSpec& blk = k.spec->block(d.block_index, slot.generated);
    const auto count = static_cast<std::uint32_t>(blk.warps.size());
    slot.kernel = &k;
    slot.live_warps = count;
    slot.warps.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      // A retired warp has no pending lanes, so only these fields carry
      // over from the slot's previous block.
      Warp& w = slot.warps[i];
      w.id = k.next_warp_id++;
      w.sm = d.sm;
      w.stream = &blk.warps[i];
      w.pos = 0;
      w.state = WarpState::Runnable;
      schedule_step(WarpRef{si, i},
                    cfg_.dispatch_latency + rng_.next_below(cfg_.jitter_ns + 1));
    }
    // A block with zero warps retires immediately.
    if (count == 0) {
      free_slots_.push_back(si);
      scheduler_.on_block_complete(d.sm);
    }
  }
}

void GpuEngine::schedule_step(WarpRef ref, SimDuration delay) {
  // Pack (slot, warp) into one word so the closure is 16 bytes and fits
  // std::function's small buffer — this event fires once per warp step, and
  // the unpacked 24-byte capture heap-allocated every time.
  const std::uint64_t packed = (std::uint64_t{ref.slot} << 32) | ref.warp;
  eq_->schedule_in(delay, [this, packed] {
    step_warp(WarpRef{static_cast<std::uint32_t>(packed >> 32),
                      static_cast<std::uint32_t>(packed)});
  });
}

UVMSIM_HOT void GpuEngine::step_warp(WarpRef ref) {
  BlockSlot& slot = slots_[ref.slot];
  Warp& w = slot.warps[ref.warp];
  if (w.state != WarpState::Runnable) return;  // stale event

  const AccessStream& s = *w.stream;
  if (w.pos >= s.size()) {
    complete_warp(ref.slot, w);  // may recycle the slot
    return;
  }

  const AccessRecord& rec = s.record(w.pos);
  Utlb& utlb = sms_[w.sm].utlb;
  KernelStats& ks = stats_[slot.kernel->stats_index];
  const SimTime now = eq_->now();

  // First attempt at this record: every lane accesses. On replayed retries
  // only the previously-missing lanes re-access (per-lane park semantics).
  const std::span<const VirtPage> lanes =
      w.record_in_flight ? std::span<const VirtPage>(w.pending_pages)
                         : s.pages(w.pos, lanes_);

  SimDuration walk_penalty = 0;
  bool pushed_any = false;
  missing_.clear();
  // Lanes of one access mostly share a VaBlock: look it up once per run.
  VaBlockId blk_id = ~VaBlockId{0};
  VaBlock* blk = nullptr;
  for (VirtPage p : lanes) {
    const bool tlb_hit = utlb.lookup(p);
    if (tlb_hit) {
      ++utlb_hits_;
    } else {
      ++utlb_misses_;
      walk_penalty += cfg_.page_walk_latency;
    }
    if (block_of_page(p) != blk_id) {
      blk_id = block_of_page(p);
      blk = &as_->block(blk_id);
      assert(blk_id < pending_.size());  // the block existed at launch
    }
    const std::uint32_t pi = page_in_block(p);
    const bool remote = blk->remote_mapped.test(pi);
    if (!remote && !blk->gpu_resident.test(pi)) {
      // The lane parks. It emits a new buffer entry only if no fault for
      // its base page is pending (µTLB coalescing at the host page
      // granularity, which divides the block) and the SM still has a free
      // fault slot (hardware throttling).
      missing_.push_back(p);
      const std::uint32_t base_pi = pi & ~(cfg_.fault_granularity_pages - 1);
      if (pending_[blk_id].test(base_pi)) {
        ++faults_coalesced_;
      } else if (sm_outstanding_faults_[w.sm] >= cfg_.utlb_fault_slots) {
        ++faults_throttled_;
      } else {
        pushed_any |= raise_fault(w, ks, p, rec.write, blk_id, base_pi);
      }
      continue;
    }
    if (!tlb_hit) utlb.insert(p);
    if (remote) {
      // Zero-copy access over the interconnect: a fixed round-trip
      // latency plus the cache line's share of the wire, queued behind
      // other link traffic (bulk migrations and other zero-copy
      // accesses).
      walk_penalty += cfg_.remote_access_latency;
      if (link_ != nullptr) {
        SimTime done = link_->reserve_pipelined(
            Direction::HostToDevice, now, cfg_.remote_access_bytes,
            cfg_.remote_link_overhead);
        walk_penalty += done - now;
      }
      ++remote_accesses_;
    }
    // A touched page is no longer "wasted" prefetch (§V-A2 accounting).
    blk->prefetched_unused.reset(pi);
    if (rec.write) {
      blk->dirty.set(pi);
      blk->ever_populated.set(pi);
      // A write to a read-duplicated page collapses the duplication:
      // the host copy is stale from this instant.
      if (blk->read_duplicated.test(pi)) {
        blk->read_duplicated.reset(pi);
        blk->cpu_resident.reset(pi);
      }
    }
    ++ks.page_touches;
    if (ac_->enabled()) ac_->on_resident_access(p, now);
  }

  if (!missing_.empty()) {
    w.pending_pages.swap(missing_);
    w.record_in_flight = true;
    w.state = WarpState::Stalled;
    w.stall_start = now;
    stalled_.push_back(ref);
    if (pushed_any && interrupt_) interrupt_();
    return;
  }

  // All lanes satisfied: the record retires.
  w.pending_pages.clear();
  w.record_in_flight = false;
  ++w.pos;
  schedule_step(ref, rec.compute_ns + cfg_.access_latency + walk_penalty +
                         rng_.next_below(cfg_.jitter_ns + 1));
}

bool GpuEngine::raise_fault(Warp& w, KernelStats& ks, VirtPage p, bool write,
                            VaBlockId blk, std::uint32_t base_pi) {
  FaultEntry e;
  e.fault_id = next_fault_id_++;
  e.page = p;
  e.block = blk;
  e.range = as_->range_of(p);
  e.access = write ? FaultAccessType::Write : FaultAccessType::Read;
  e.gpc_id = w.sm / cfg_.sms_per_gpc;
  e.origin_sm = w.sm;
  e.origin_warp = w.id;
  if (!fb_->push(e, eq_->now())) {
    if (fault_dropped_) fault_dropped_();
    return false;
  }
  if (pending_used_.size() ==
      std::size_t{cfg_.num_sms} * cfg_.utlb_fault_slots) {
    throw std::logic_error("GpuEngine: more pending faults than fault slots");
  }
  ++ks.faults_raised;
  pending_[blk].set(base_pi);
  pending_used_.push_back(p);
  ++sm_outstanding_faults_[w.sm];
  return true;
}

void GpuEngine::complete_warp(std::uint32_t si, Warp& w) {
  w.state = WarpState::Done;
  BlockSlot& slot = slots_[si];
  ActiveKernel& k = *slot.kernel;
  ++k.warps_done;
  if (--slot.live_warps == 0) {
    free_slots_.push_back(si);
    scheduler_.on_block_complete(w.sm);
    dispatch_blocks();  // may refill the slot: slot and w dangle from here
  }
  if (k.warps_done != k.total_warps) return;

  // Kernel complete.
  stats_[k.stats_index].completed_at = eq_->now();
  scheduler_.end_grid(k.id);
  std::uint32_t stream = k.stream;
  auto cb = std::move(k.on_complete);
  active_.erase(k.id);  // k is dangling from here on
  if (cb) cb();
  stream_busy_.erase(stream);
  try_activate_stream(stream);
}

void GpuEngine::replay() {
  // The replay retries every parked access; pending-fault markers and SM
  // fault slots reset (unsatisfied accesses will raise fresh entries).
  for (VirtPage p : pending_used_) {
    pending_[block_of_page(p)].reset(
        page_in_block(p) & ~(cfg_.fault_granularity_pages - 1));
  }
  pending_used_.clear();
  sm_outstanding_faults_.assign(sm_outstanding_faults_.size(), 0);
  if (stalled_.empty()) return;

  ++replays_;
  resuming_.swap(stalled_);  // resuming_ was empty: stalled_ now is
  for (WarpRef ref : resuming_) {
    BlockSlot& slot = slots_[ref.slot];
    Warp& w = slot.warps[ref.warp];
    if (w.state != WarpState::Stalled) continue;
    w.state = WarpState::Runnable;
    ActiveKernel& k = *slot.kernel;
    KernelStats& ks = stats_[k.stats_index];
    SimDuration stalled_for = eq_->now() - w.stall_start;
    ks.stall_ns += stalled_for;
    ++ks.stall_episodes;
    stall_latency_.add(stalled_for);
    // One replay notification per kernel that had parked warps.
    if (k.last_replay_seen != replays_) {
      k.last_replay_seen = replays_;
      ++ks.replays_seen;
    }
    schedule_step(ref, cfg_.replay_latency + rng_.next_below(cfg_.jitter_ns + 1));
  }
  resuming_.clear();
}

void GpuEngine::invalidate_tlbs() {
  for (auto& sm : sms_) sm.utlb.invalidate_all();
}

}  // namespace uvmsim
