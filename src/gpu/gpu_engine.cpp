#include "gpu/gpu_engine.h"

#include <bit>
#include <cassert>
#include <span>
#include <stdexcept>

#include "sim/annotations.h"

namespace uvmsim {

GpuEngine::GpuEngine(const Config& cfg, std::uint64_t seed, EventQueue& eq,
                     AddressSpace& as, FaultBuffer& fb, AccessCounters& ac,
                     Interconnect* link)
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
  eq.set_step_handler(&GpuEngine::on_step_event, this);
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
  // pending mask, its big page's stamp and its SM's µTLB live bit directly.
  if (pending_.size() < as_->num_blocks()) {
    pending_.resize(as_->num_blocks());
    stamps_.resize(pending_.size() * kBigPagesPerBlock);
    for (Sm& sm : sms_) sm.utlb.reserve(stamps_.size());
  }
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
      if (free_step_ids_.empty()) {
        w.step = static_cast<std::uint32_t>(step_owners_.size());
        step_owners_.push_back(WarpRef{si, i});
        // Room for every id, so retiring warps never grow the stack.
        free_step_ids_.reserve(step_owners_.capacity());
      } else {
        w.step = free_step_ids_.back();
        free_step_ids_.pop_back();
        step_owners_[w.step] = WarpRef{si, i};
      }
      schedule_step(w, cfg_.dispatch_latency + jitter());
    }
    // A block with zero warps retires immediately.
    if (count == 0) {
      free_slots_.push_back(si);
      scheduler_.on_block_complete(d.sm);
    }
  }
}

void GpuEngine::schedule_step(const Warp& w, SimDuration delay) {
  // A warp step is a typed event named by the warp's step id. A warp has
  // at most one pending step: it is scheduled at dispatch, by its own
  // step, or by the replay that ends its stall, and a warp that parks or
  // retires schedules none.
  eq_->schedule_step_in(delay, w.step);
}

void GpuEngine::on_step_event(void* engine, std::uint32_t id) {
  auto* self = static_cast<GpuEngine*>(engine);
  self->step_warp(self->step_owners_[id]);
}

UVMSIM_HOT void GpuEngine::step_warp(WarpRef ref) {
  BlockSlot& slot = slots_[ref.slot];
  Warp& w = slot.warps[ref.warp];
  assert(w.state == WarpState::Runnable);  // only a runnable warp has a step

  const AccessStream& s = *w.stream;
  if (w.pos >= s.size()) {
    complete_warp(ref.slot, w);  // may recycle the slot
    return;
  }

  const AccessRecord& rec = s.record(w.pos);
  Utlb& utlb = sms_[w.sm].utlb;
  KernelStats& ks = stats_[slot.kernel->stats_index];

  SimDuration walk_penalty = 0;
  // A first attempt at a record of one-page rows, with access counters
  // off, steps a word at a time when every lane is resident and local;
  // anything else walks the lanes one by one.
  const bool resident =
      !w.record_in_flight && rec.strided && !ac_->enabled() &&
      s.strided(w.pos).one_page_rows() &&
      step_resident(s.strided(w.pos), rec.write, utlb, ks, walk_penalty);
  if (!resident && !step_lanes(ref, w, rec, utlb, ks, walk_penalty)) return;

  // All lanes satisfied: the record retires.
  w.pending_pages.clear();
  w.record_in_flight = false;
  ++w.pos;
  schedule_step(w, rec.compute_ns + cfg_.access_latency + walk_penalty +
                         jitter());
}

UVMSIM_HOT bool GpuEngine::step_resident(const StridedAccess& sa,
                                         bool write, Utlb& utlb,
                                         KernelStats& ks,
                                         SimDuration& walk_penalty) {
  const std::uint32_t lanes = sa.rows;
  // The lanes ascend, so they fold into pieces of one 64-page mask word
  // each; a block is eight aligned words, so page / 64 names the piece.
  if (pieces_.size() < lanes) pieces_.resize(lanes);
  Piece* const pieces = pieces_.data();
  std::size_t n = 0;
  std::uint64_t key = sa.row_page(0) / PageMask::kWordBits;
  std::uint64_t bits = 0;
  for (std::uint32_t i = 0; i < lanes; ++i) {
    const LanePage p = sa.row_page(i);
    if (p / PageMask::kWordBits != key) {
      pieces[n++] = Piece{key, bits, nullptr};
      key = p / PageMask::kWordBits;
      bits = 0;
    }
    bits |= std::uint64_t{1} << (p % PageMask::kWordBits);
  }
  pieces[n++] = Piece{key, bits, nullptr};

  // Every lane must be GPU-resident and not remote-mapped. This check
  // mutates nothing, so failing it leaves the per-lane walk a clean start.
  VaBlockId blk_id = ~VaBlockId{0};
  VaBlock* blk = nullptr;
  for (Piece& pc : std::span(pieces, n)) {
    if (pc.key / PageMask::kWords != blk_id) {
      blk_id = pc.key / PageMask::kWords;
      blk = &as_->block(blk_id);
      assert(blk_id < pending_.size());  // the block existed at launch
    }
    const auto wi = static_cast<std::uint32_t>(pc.key % PageMask::kWords);
    if ((pc.bits & (~blk->gpu_resident.word(wi) |
                    blk->remote_mapped.word(wi))) != 0) {
      return false;
    }
    pc.blk = blk;
  }

  // Exactly the per-lane walk's µTLB and mask effects. Its first lane in a
  // big page looks the page up, and on a miss walks and inserts it; either
  // way the tag is then live, so the big page's other lanes hit.
  constexpr std::uint64_t kBigPageBits = (1ULL << kPagesPerBigPage) - 1;
  std::uint64_t misses = 0;
  for (const Piece& pc : std::span(pieces, n)) {
    const VirtPage word_first = pc.key * PageMask::kWordBits;
    for (std::uint32_t b = 0; b < PageMask::kWordBits; b += kPagesPerBigPage) {
      if (((pc.bits >> b) & kBigPageBits) != 0 &&
          !utlb.lookup(word_first + b)) {
        ++misses;
        utlb.insert(word_first + b);
        stamp(word_first + b);
      }
    }
    VaBlock& vb = *pc.blk;
    const auto wi = static_cast<std::uint32_t>(pc.key % PageMask::kWords);
    vb.prefetched_unused.reset_word_bits(wi, pc.bits);
    if (write) {
      vb.dirty.set_word_bits(wi, pc.bits);
      vb.ever_populated.set_word_bits(wi, pc.bits);
      const std::uint64_t dup = vb.read_duplicated.word(wi) & pc.bits;
      vb.read_duplicated.reset_word_bits(wi, dup);
      vb.cpu_resident.reset_word_bits(wi, dup);
    }
  }
  utlb_hits_ += lanes - misses;
  utlb_misses_ += misses;
  walk_penalty += misses * cfg_.page_walk_latency;
  ks.page_touches += lanes;
  return true;
}

UVMSIM_HOT UVMSIM_ALWAYS_INLINE inline bool GpuEngine::walk_lane(
    Warp& w, LanePage p, bool write, Utlb& utlb, KernelStats& ks, SimTime now,
    BlockCursor& cur, SimDuration& walk_penalty, bool& pushed) {
  const bool tlb_hit = utlb.lookup(p);
  if (tlb_hit) {
    ++utlb_hits_;
  } else {
    ++utlb_misses_;
    walk_penalty += cfg_.page_walk_latency;
  }
  if (block_of_page(p) != cur.id) {
    cur.id = block_of_page(p);
    cur.blk = &as_->block(cur.id);
    assert(cur.id < pending_.size());  // the block existed at launch
  }
  VaBlock& blk = *cur.blk;
  const std::uint32_t pi = page_in_block(p);
  const bool remote = blk.remote_mapped.test(pi);
  if (!remote && !blk.gpu_resident.test(pi)) {
    // The lane parks. It emits a new buffer entry only if no fault for its
    // base page is pending (µTLB coalescing at the host page granularity,
    // which divides the block) and the SM still has a free fault slot
    // (hardware throttling). A lane parked as a µTLB hit or coalesced
    // stamps its big page: a later loss (µTLB overwrite or invalidate, the
    // replay's pending reset) changes its outcome with no stamp of its own.
    const std::uint32_t base_pi = pi & ~(cfg_.fault_granularity_pages - 1);
    const bool coalesced = pending_[cur.id].test(base_pi);
    if (tlb_hit || coalesced) stamp(p);
    if (coalesced) {
      ++faults_coalesced_;
    } else if (sm_outstanding_faults_[w.sm] >= cfg_.utlb_fault_slots) {
      ++faults_throttled_;
    } else {
      pushed |= raise_fault(w, ks, p, write, cur.id, base_pi);
    }
    return true;
  }
  if (!tlb_hit) {
    utlb.insert(p);
    stamp(p);
  }
  if (remote) {
    // Zero-copy access over the interconnect: a fixed round-trip latency
    // plus the cache line's share of the wire, queued behind other link
    // traffic (bulk migrations and other zero-copy accesses).
    walk_penalty += cfg_.remote_access_latency;
    if (link_ != nullptr) {
      SimTime done = link_->reserve_pipelined(Direction::HostToDevice, now,
                                              cfg_.remote_access_bytes,
                                              cfg_.remote_link_overhead);
      walk_penalty += done - now;
    }
    ++remote_accesses_;
  }
  // A touched page is no longer "wasted" prefetch (§V-A2 accounting).
  blk.prefetched_unused.reset(pi);
  if (write) {
    blk.dirty.set(pi);
    blk.ever_populated.set(pi);
    // A write to a read-duplicated page collapses the duplication: the
    // host copy is stale from this instant.
    if (blk.read_duplicated.test(pi)) {
      blk.read_duplicated.reset(pi);
      blk.cpu_resident.reset(pi);
    }
  }
  ++ks.page_touches;
  if (ac_->enabled()) ac_->on_resident_access(p, now);
  return false;
}

UVMSIM_HOT bool GpuEngine::step_lanes(WarpRef ref, Warp& w,
                                      const AccessRecord& rec, Utlb& utlb,
                                      KernelStats& ks,
                                      SimDuration& walk_penalty) {
  const SimTime now = eq_->now();
  const std::uint64_t prev_walk = w.walk;
  w.walk = ++walks_;
  bool pushed_any = false;
  BlockCursor cur;
  if (!w.record_in_flight) {
    // First attempt at this record: every lane accesses.
    missing_.clear();
    for (const LanePage p : w.stream->pages(w.pos, lanes_)) {
      if (walk_lane(w, p, rec.write, utlb, ks, now, cur, walk_penalty,
                    pushed_any)) {
        missing_.push_back(p);
      }
    }
    if (missing_.empty()) return true;
    w.pending_pages.swap(missing_);
    w.record_in_flight = true;
  } else {
    // A replayed retry: only the parked lanes re-access (per-lane park
    // semantics), and the ones still parked stay, compacted in place.
    // Most of them are quiet: nothing they can observe gained since the
    // warp's previous walk, so each is still a µTLB miss that throttles
    // or raises its fault.
    const std::span<LanePage> lanes(w.pending_pages);
    const std::uint64_t* const stamps = stamps_.data();
    const std::uint32_t group_mask = ~(cfg_.fault_granularity_pages - 1);
    const std::uint32_t slots = cfg_.utlb_fault_slots;
    // Only raise_fault takes a slot, so this changes only after a call.
    bool slots_full = sm_outstanding_faults_[w.sm] >= slots;
    std::size_t kept = 0;
    std::uint64_t quiet_misses = 0;
    std::uint64_t quiet_throttled = 0;
    for (const LanePage p : lanes) {
      if (stamps[p / kPagesPerBigPage] < prev_walk) {
        assert(quiet_premise_holds(p, utlb));
        ++quiet_misses;
        lanes[kept++] = p;
        if (slots_full) {
          ++quiet_throttled;
          continue;
        }
        pushed_any |= raise_fault(w, ks, p, rec.write, block_of_page(p),
                                  page_in_block(p) & group_mask);
      } else if (walk_lane(w, p, rec.write, utlb, ks, now, cur,
                           walk_penalty, pushed_any)) {
        lanes[kept++] = p;
      }
      slots_full = sm_outstanding_faults_[w.sm] >= slots;
    }
    utlb_misses_ += quiet_misses;
    walk_penalty += quiet_misses * cfg_.page_walk_latency;
    faults_throttled_ += quiet_throttled;
    if (kept == 0) return true;
    w.pending_pages.resize(kept);
  }

  w.state = WarpState::Stalled;
  w.stall_start = now;
  stalled_.push_back(ref);
  if (pushed_any && interrupt_) interrupt_();
  return false;
}

bool GpuEngine::quiet_premise_holds(LanePage p, const Utlb& utlb) const {
  const VaBlock& blk = as_->block(block_of_page(p));
  const std::uint32_t pi = page_in_block(p);
  return !blk.gpu_resident.test(pi) && !blk.remote_mapped.test(pi) &&
         !utlb.lookup(p) &&
         !pending_[block_of_page(p)].test(
             pi & ~(cfg_.fault_granularity_pages - 1));
}

void GpuEngine::on_pages_mapped(VaBlockId blk, const PageMask& pages) {
  for (std::uint32_t w = 0; w < PageMask::kWords; ++w) {
    on_pages_mapped(blk, w, pages.word(w));
  }
}

bool GpuEngine::raise_fault(Warp& w, KernelStats& ks, LanePage p, bool write,
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
  // The whole group now coalesces: stamp its big pages (one if the group
  // is at most a big page wide).
  const VirtPage first = blk * kPagesPerBlock + base_pi;
  for (VirtPage q = first; q < first + cfg_.fault_granularity_pages;
       q += kPagesPerBigPage) {
    stamp(q);
  }
  pending_used_.push_back(p);
  ++sm_outstanding_faults_[w.sm];
  return true;
}

void GpuEngine::complete_warp(std::uint32_t si, Warp& w) {
  w.state = WarpState::Done;
  // The id is free at once: a block dispatched below may hand it to a new
  // warp while this warp's step is still firing.
  free_step_ids_.push_back(w.step);
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
  for (const LanePage p : pending_used_) {
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
    schedule_step(w, cfg_.replay_latency + jitter());
  }
  resuming_.clear();
}

void GpuEngine::invalidate_tlbs() {
  for (auto& sm : sms_) sm.utlb.invalidate_all();
}

}  // namespace uvmsim
