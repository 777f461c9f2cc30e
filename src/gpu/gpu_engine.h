// The GPU execution model.
//
// Replays workload access streams on a grid of SMs, generating replayable
// far-faults against the fault buffer exactly as the paper's Fig. 2
// describes: a warp whose access misses in the GPU page table parks, its
// fault entry lands in the circular buffer, the driver is interrupted, and
// the warp retries only when the driver issues a replay. Non-faulting warps
// keep running (latency hiding), so faults arrive in the parallel,
// nondeterministically interleaved order that makes the driver's workload
// hard (paper §IV-B).
//
// Kernels launch into *streams* (CUDA semantics): kernels in one stream
// serialize; kernels in different streams run concurrently, their blocks
// co-scheduled round-robin onto the shared SM array.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gpu/access.h"
#include "gpu/access_counters.h"
#include "gpu/block_scheduler.h"
#include "gpu/fault_buffer.h"
#include "gpu/sm.h"
#include "gpu/warp.h"
#include "mem/address_space.h"
#include "mem/interconnect.h"
#include "mem/page_mask.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace uvmsim {

/// Per-kernel execution statistics.
struct KernelStats {
  std::string name;
  std::uint32_t stream = 0;
  SimTime launched_at = 0;
  SimTime completed_at = 0;
  std::uint64_t faults_raised = 0;
  std::uint64_t page_touches = 0;
  std::uint64_t stall_ns = 0;        ///< summed per-warp stall time
  std::uint64_t stall_episodes = 0;  ///< park/resume cycles across warps
  std::uint64_t replays_seen = 0;    ///< replay notifications received
  double work_units = 0.0;

  [[nodiscard]] SimDuration duration() const { return completed_at - launched_at; }
};

class GpuEngine {
 public:
  struct Config {
    /// SM array scaled with the default 128 MiB memory (a Titan V pairs
    /// 80 SMs with 12 GB): keeping the ratio preserves the paper's key
    /// dynamic that resident blocks demand only a small fraction of the
    /// dataset at any instant — the temporal spread behind prefetch waste
    /// and evict-before-use (§V-A2).
    std::uint32_t num_sms = 8;
    std::uint32_t max_blocks_per_sm = 2;
    std::uint32_t sms_per_gpc = 4;
    std::uint32_t utlb_entries = 64;
    /// Outstanding-fault slots per SM µTLB. Parked accesses beyond this
    /// limit wait without emitting fault entries (hardware throttling that
    /// keeps the fault buffer from being swamped by every resident warp).
    /// The small slot count is what makes faults SPARSE within big pages —
    /// the precondition for the 64 KB upgrade to eliminate faults. 8 slots
    /// calibrates regular page-touch fault coverage to the paper's Table I
    /// (~82 %).
    std::uint32_t utlb_fault_slots = 8;
    /// Host base-page granularity of fault generation, in 4 KB pages:
    /// 1 = x86 (4 KB pages); 16 = Power9 (64 KB pages), where one fault
    /// covers the whole 64 KB region so further misses in it coalesce
    /// (paper §IV-A / [14]). The driver services faults at the same
    /// granularity. Must divide 512.
    std::uint32_t fault_granularity_pages = 1;
    SimDuration access_latency = 400;    ///< ns, resident coalesced access
    SimDuration page_walk_latency = 600; ///< ns, µTLB miss walk
    /// Extra latency per access to a remote-mapped (zero-copy host) page:
    /// one interconnect round trip instead of an HBM access.
    SimDuration remote_access_latency = 1200;
    /// Bytes one zero-copy access moves over the link (a cache line).
    std::uint32_t remote_access_bytes = 128;
    /// Per-transaction link occupancy overhead (TLP framing) of a
    /// zero-copy access; together with remote_access_bytes this makes heavy
    /// zero-copy traffic bandwidth-bound on the interconnect.
    SimDuration remote_link_overhead = 100;
    SimDuration replay_latency = 2 * kMicrosecond;  ///< replay to SM resume
    SimDuration dispatch_latency = 1 * kMicrosecond;
    SimDuration kernel_launch_overhead = 8 * kMicrosecond;
    std::uint32_t jitter_ns = 200;       ///< per-access scheduling jitter
  };

  /// `link` (optional) is the host-device interconnect zero-copy accesses
  /// travel over; when null, remote accesses pay only the fixed latency.
  /// Warps read residency straight from `as`'s blocks (the masks the driver
  /// maintains), one block lookup per run of same-block pages. `seed`
  /// drives the per-access scheduling jitter. `cfg` must have passed
  /// SimConfig::validate(). The engine installs itself as `eq`'s step
  /// handler, so a queue drives one engine.
  GpuEngine(const Config& cfg, std::uint64_t seed, EventQueue& eq,
            AddressSpace& as, FaultBuffer& fb, AccessCounters& ac,
            Interconnect* link = nullptr);

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Enqueues a kernel on `stream`. Kernels in the same stream execute in
  /// launch order; different streams run concurrently. `on_complete` fires
  /// (if set) when the kernel's last warp retires.
  void launch(const KernelSpec* spec, std::function<void()> on_complete = {},
              std::uint32_t stream = 0);

  /// Driver-issued replay notification: every stalled warp resumes after
  /// replay_latency and retries its faulted access.
  void replay();

  /// Driver-issued TLB shootdown (on unmap/evict).
  void invalidate_tlbs();

  /// Residency notice: `pages` of block `blk` just gained gpu_resident or
  /// remote_mapped. Whatever sets those bits after a launch must call it
  /// (the driver's map_local/map_remote, the GPU-driven resolve_fault,
  /// prefill_all_resident, test rigs), or a retried parked lane may keep
  /// missing a page that is mapped: it stamps each 64 KB big page the mask
  /// touches (see the walk numbers below). Blocks created after the last
  /// launch are ignored; no lane has walked them.
  void on_pages_mapped(VaBlockId blk, const PageMask& pages);
  /// The same notice for the pages `bits` of storage word `w` alone: the
  /// GPU-driven resolve_fault maps one to eight words per fault.
  void on_pages_mapped(VaBlockId blk, std::uint32_t w, std::uint64_t bits) {
    if (blk >= pending_.size()) return;
    constexpr std::uint32_t kPerWord = PageMask::kWordBits / kPagesPerBigPage;
    // Fold each 16-bit big page of the word onto its lowest bit: the shifts
    // add up to 15, so no big page reaches into the next one down.
    bits |= bits >> 8;
    bits |= bits >> 4;
    bits |= bits >> 2;
    bits |= bits >> 1;
    bits &= 0x0001000100010001ULL;
    std::uint64_t* const stamps =
        &stamps_[(std::size_t{blk} * kBigPagesPerBlock) + (w * kPerWord)];
    for (; bits != 0; bits &= bits - 1) {
      stamps[std::countr_zero(bits) / kPagesPerBigPage] = walks_;
    }
  }

  /// Installs the handler invoked whenever a fault entry is pushed (the
  /// driver's interrupt line).
  void set_interrupt_handler(std::function<void()> h) {
    interrupt_ = std::move(h);
  }

  /// Installs the handler invoked whenever a fault entry fails to reach the
  /// buffer (overflow or injected corruption). The driver uses it to arm a
  /// stall watchdog: a lost entry can leave a warp parked with no pending
  /// replay, which would otherwise deadlock the run.
  void set_fault_drop_handler(std::function<void()> h) {
    fault_dropped_ = std::move(h);
  }

  /// True while any kernel is active or queued.
  /// Test seam: EdgeCases.MaxJitterRunsToCompletion.
  [[nodiscard]] bool busy() const;
  /// True if any warp of any running kernel is parked on a fault.
  [[nodiscard]] bool has_stalled_warps() const { return !stalled_.empty(); }
  [[nodiscard]] const std::vector<KernelStats>& kernel_stats() const {
    return stats_;
  }
  [[nodiscard]] std::uint64_t utlb_hits() const { return utlb_hits_; }
  [[nodiscard]] std::uint64_t utlb_misses() const { return utlb_misses_; }
  /// Faults coalesced with an already-pending entry for the same page
  /// (parked without a new buffer entry).
  [[nodiscard]] std::uint64_t faults_coalesced() const {
    return faults_coalesced_;
  }
  /// Faults suppressed because the SM's µTLB fault slots were exhausted.
  [[nodiscard]] std::uint64_t faults_throttled() const {
    return faults_throttled_;
  }
  /// Accesses served over the interconnect from remote-mapped pages.
  [[nodiscard]] std::uint64_t remote_accesses() const {
    return remote_accesses_;
  }
  /// Distribution of warp stall-episode durations (ns): the
  /// fault-resolution latency warps actually experienced.
  [[nodiscard]] const LogHistogram& stall_latency() const {
    return stall_latency_;
  }

 private:
  struct PendingKernel {
    const KernelSpec* spec;
    std::function<void()> on_complete;
    std::uint32_t stream;
  };
  struct ActiveKernel {
    std::uint64_t id = 0;
    const KernelSpec* spec = nullptr;
    std::function<void()> on_complete;
    std::uint32_t stream = 0;
    std::size_t stats_index = 0;
    std::size_t total_warps = 0;
    std::size_t warps_done = 0;
    /// Id of the next dispatched warp: a grid's blocks dispatch in
    /// ascending order, so warp ids number the grid's warps in block order.
    std::uint32_t next_warp_id = 0;
    /// Last replay (GpuEngine::replays_) this kernel counted in
    /// KernelStats::replays_seen.
    std::uint64_t last_replay_seen = 0;
  };
  /// One resident thread block: its warps and, for a generated kernel, its
  /// streams. A slot is recycled when its block retires, so warp state and
  /// generated streams take memory for the resident blocks only.
  struct BlockSlot {
    ActiveKernel* kernel = nullptr;  ///< map nodes are stable
    std::uint32_t live_warps = 0;
    std::vector<Warp> warps;
    ThreadBlockSpec generated;
  };
  /// Handle identifying one warp of one resident block.
  struct WarpRef {
    std::uint32_t slot;
    std::uint32_t warp;
  };

  void try_activate_stream(std::uint32_t stream);
  void activate(PendingKernel pk);
  void dispatch_blocks();
  void schedule_step(WarpRef ref, SimDuration delay);
  /// The event queue's step handler: unpacks a schedule_step payload.
  static void on_step_event(void* engine, std::uint64_t packed);
  void step_warp(WarpRef ref);
  /// Steps the first attempt at a record of one-page rows `sa` (access
  /// counters off) a mask word at a time, if every lane is GPU-resident
  /// and not remote-mapped: the same µTLB, mask and counter effects as the
  /// per-lane walk, adding its µTLB walks to `walk_penalty`. Returns false,
  /// having changed nothing, otherwise.
  bool step_resident(const StridedAccess& sa, bool write, Utlb& utlb,
                     KernelStats& ks, SimDuration& walk_penalty);
  /// Steps `w`'s current record lane by lane (on a retry, only its parked
  /// lanes), raising faults for missing ones and adding µTLB walk and
  /// remote-access latency to `walk_penalty`. Returns false if the warp
  /// parked. A retry skips every quiet lane: one whose big page has no
  /// stamp since the warp's previous walk is still unmapped, a µTLB miss
  /// and not pending, so only its miss and its throttle or fault remain.
  bool step_lanes(WarpRef ref, Warp& w, const AccessRecord& rec, Utlb& utlb,
                  KernelStats& ks, SimDuration& walk_penalty);
  /// The VaBlock of a walk's last lane: lanes of one access mostly share a
  /// block, so a walk looks it up once per run.
  struct BlockCursor {
    VaBlockId id = ~VaBlockId{0};
    VaBlock* blk = nullptr;
  };
  /// One lane's full step: its µTLB lookup, then a mapped page's touch
  /// effects (µTLB insert, remote access, masks, access counters), or how
  /// the lane parks (coalesced, throttled or a fault entry). Returns true
  /// if the lane parked; sets `pushed` if its fault entry reached the
  /// buffer.
  bool walk_lane(Warp& w, LanePage p, bool write, Utlb& utlb,
                 KernelStats& ks, SimTime now, BlockCursor& cur,
                 SimDuration& walk_penalty, bool& pushed);
  /// Records that something a parked lane on big page `p / 16` can observe
  /// gained: residency, a µTLB entry, a pending fault.
  void stamp(VirtPage p) { stamps_[p / kPagesPerBigPage] = walks_; }
  /// What a quiet lane is known to be: unmapped, a miss in `utlb` and not
  /// pending (checked by assert in Debug builds).
  [[nodiscard]] bool quiet_premise_holds(LanePage p, const Utlb& utlb) const;
  /// Per-access scheduling jitter, uniform in [0, jitter_ns]. The bound is
  /// taken in 64 bits, so jitter_ns = UINT32_MAX does not wrap it to 0.
  SimDuration jitter() {
    return rng_.next_below(std::uint64_t{cfg_.jitter_ns} + 1);
  }
  /// Pushes a fault entry for missing page `p` of `w`'s record, whose base
  /// page is `base_pi` of `blk`, and takes one of the SM's fault slots.
  /// Returns true if the entry reached the buffer; then the base-page
  /// group is pending and each of its big pages is stamped.
  bool raise_fault(Warp& w, KernelStats& ks, LanePage p, bool write,
                   VaBlockId blk, std::uint32_t base_pi);
  /// Retires warp `w` of `slot`; may recycle the slot and complete its
  /// kernel (invalidating both).
  void complete_warp(std::uint32_t slot, Warp& w);

  Config cfg_;
  EventQueue* eq_;
  AddressSpace* as_;
  FaultBuffer* fb_;
  AccessCounters* ac_;
  Interconnect* link_;
  Rng rng_;

  std::map<std::uint32_t, std::deque<PendingKernel>> stream_queues_;
  std::unordered_set<std::uint32_t> stream_busy_;
  std::map<std::uint64_t, ActiveKernel> active_;
  std::uint64_t next_kernel_id_ = 0;

  std::vector<Sm> sms_;
  BlockScheduler scheduler_;
  /// One slot per block the SM array can hold; free_slots_ is a stack.
  std::vector<BlockSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<WarpRef> stalled_;
  /// Buffers reused across calls so stepping and replay never allocate in
  /// steady state: a strided record's expanded lanes, the lanes still
  /// missing after a first attempt (swapped into the warp; a retry
  /// compacts Warp::pending_pages in place), the warps a replay resumes,
  /// and a resident record's mask-word pieces.
  std::vector<LanePage> lanes_;
  std::vector<LanePage> missing_;
  std::vector<WarpRef> resuming_;
  /// The lanes of a record step_resident folds: page / 64 (a block's mask
  /// word), the lanes' bits in that word, and the block, once checked.
  struct Piece {
    std::uint64_t key;
    std::uint64_t bits;
    VaBlock* blk;
  };
  std::vector<Piece> pieces_;
  /// Replays that found parked warps; numbers them for last_replay_seen.
  std::uint64_t replays_ = 0;

  std::function<void()> interrupt_;
  std::function<void()> fault_dropped_;
  std::vector<KernelStats> stats_;
  std::uint64_t next_fault_id_ = 0;
  std::uint64_t utlb_hits_ = 0;
  std::uint64_t utlb_misses_ = 0;
  std::uint64_t faults_coalesced_ = 0;
  std::uint64_t faults_throttled_ = 0;
  std::uint64_t remote_accesses_ = 0;
  LogHistogram stall_latency_;

  /// Per VA block, the base pages with an in-flight fault entry since the
  /// last replay: further faults on them coalesce (no new entry). launch()
  /// grows it to the address space; replay() clears the bits listed in
  /// pending_used_, which never holds more than num_sms × utlb_fault_slots
  /// pages (each entry takes an SM fault slot).
  std::vector<PageMask> pending_;
  std::vector<LanePage> pending_used_;
  /// Walk numbers. Every step_lanes call takes the next one and keeps it
  /// in Warp::walk. stamps_ holds, per 64 KB big page (the µTLB tag),
  /// the walk number current when something a parked lane there can
  /// observe last gained: (a) a page became gpu_resident or remote_mapped
  /// (on_pages_mapped), (b) a µTLB insert on any SM, (c) a raised fault
  /// made its base-page group pending, (d) a lane parked as a µTLB hit or
  /// coalesced, whose outcome a later loss can change unstamped. Losses
  /// (eviction, µTLB overwrite or invalidate, the replay's pending reset)
  /// and dropped fault entries need no stamp: they cannot turn an
  /// unmapped, missing, not-pending lane into anything else. 64-bit
  /// numbers never wrap. launch() grows it with pending_.
  std::uint64_t walks_ = 0;
  std::vector<std::uint64_t> stamps_;
  /// Outstanding fault entries per SM since the last replay.
  std::vector<std::uint32_t> sm_outstanding_faults_;
};

}  // namespace uvmsim
