#include "core/simulator.h"

#include "core/errors.h"
#include "uvm/markov_prefetcher.h"

namespace uvmsim {

namespace {

void require(bool ok, const char* param, const char* problem) {
  if (!ok) throw ConfigError(param, problem);
}

void require_rate(double rate, const char* param) {
  require(rate >= 0.0 && rate < 1.0, param,
          "must be in [0, 1) — at a rate of 1 every retry would fail and "
          "the recovery loops could not terminate");
}

bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

const SimConfig& validated(const SimConfig& cfg) {
  cfg.validate();
  return cfg;
}

/// SplitMix64-style finalizer: derives the hazard seed from the master seed
/// WITHOUT drawing from the simulator's Rng — an extra draw would shift the
/// GPU/driver/workload streams and break the invariant that hazard-free
/// runs are bit-identical to runs predating the hazard subsystem.
std::uint64_t derive_hazard_seed(std::uint64_t master_seed) {
  std::uint64_t z = master_seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

void SimConfig::validate() const {
  require(gpu.num_sms > 0, "gpu.num_sms", "must be positive");
  require(gpu.max_blocks_per_sm > 0, "gpu.max_blocks_per_sm",
          "must be positive");
  require(gpu.sms_per_gpc > 0, "gpu.sms_per_gpc", "must be positive");
  require(gpu.utlb_entries > 0, "gpu.utlb_entries", "must be positive");
  require(gpu.utlb_fault_slots > 0, "gpu.utlb_fault_slots",
          "must be positive");
  require(gpu.fault_granularity_pages != 0 &&
              kPagesPerBlock % gpu.fault_granularity_pages == 0,
          "gpu.fault_granularity_pages",
          "must divide the 512-page VABlock (1 = x86 4 KB pages, 16 = "
          "Power9 64 KB pages)");
  require(fault_buffer.capacity >= 1, "fault_buffer.capacity",
          "must be >= 1 — a zero-entry buffer drops every fault");
  require(pma.chunk_bytes != 0 && pma.chunk_bytes % kPageSize == 0,
          "pma.chunk_bytes",
          "must be a positive multiple of the 4 KB page size");
  require(pma.capacity_bytes >= kPageSize, "pma.capacity_bytes",
          "must hold at least one 4 KB page");
  require(pma.slab_chunks >= 1, "pma.slab_chunks", "must be >= 1");
  require(interconnect.bandwidth_Bps > 0.0, "interconnect.bandwidth_Bps",
          "must be positive");
  require(driver.batch_size >= 1, "driver.batch_size",
          "must be >= 1 — the driver fetches at least one fault per pass");
  require(driver.chunking.fine_watermark >= 0.0,
          "driver.chunking.fine_watermark", "must be >= 0");
  require(driver.chunking.split_watermark >= driver.chunking.fine_watermark,
          "driver.chunking.split_watermark",
          "must be >= fine_watermark");
  if (driver.prefetch == PrefetchMode::Markov) {
    const MarkovPrefetchConfig& m = driver.markov;
    require(is_pow2(m.table_entries) && m.table_entries >= 2 &&
                m.table_entries <= (1u << 20),
            "driver.markov.table_entries",
            "must be a power of two in [2, 2^20] (direct-mapped index "
            "masking)");
    require(m.degree >= 1 && m.degree <= MarkovPrefetcher::kMaxDegree,
            "driver.markov.degree", "must be in [1, kMaxDegree (8)]");
    require(m.confidence_emit >= 1 && m.confidence_emit <= m.confidence_max,
            "driver.markov.confidence_emit",
            "must be in [1, confidence_max]; 0 would emit untrained "
            "predictions");
  }
  if (hazards.any()) {
    require_rate(hazards.dma_fail_rate, "hazards.dma_fail_rate");
    require_rate(hazards.fb_corrupt_rate, "hazards.fb_corrupt_rate");
    require_rate(hazards.pma_fail_rate, "hazards.pma_fail_rate");
    require_rate(hazards.ac_drop_rate, "hazards.ac_drop_rate");
    require(hazards.window_end == 0 ||
                hazards.window_end > hazards.window_start,
            "hazards.window_end",
            "must be 0 (open-ended) or greater than window_start");
  }
}

Simulator::Simulator(const SimConfig& cfg)
    : cfg_(validated(cfg)),
      rng_(cfg.seed),
      pt_(as_),
      fb_(cfg.fault_buffer),
      ac_(cfg.access_counters,
          cfg.driver.eviction_policy == EvictionPolicyKind::AccessCounter ||
              cfg.driver.access_counter_migration),
      pma_(cfg.pma),
      link_(cfg.interconnect),
      dma_(cfg.dma, link_) {
  if (cfg_.hazards.any()) {
    HazardConfig hc = cfg_.hazards;
    if (hc.seed == 0) hc.seed = derive_hazard_seed(cfg_.seed);
    hazards_ = std::make_unique<HazardInjector>(hc);
    fb_.set_hazard_injector(hazards_.get());
    pma_.set_hazard_injector(hazards_.get());
    ac_.set_hazard_injector(hazards_.get());
    dma_.set_hazard_injector(hazards_.get());
  }

  if (cfg_.trace.enabled) {
    tracer_ = std::make_unique<Tracer>(cfg_.trace);
  }

  const std::uint64_t gpu_seed = rng_.next_u64();
  gpu_ = std::make_unique<GpuEngine>(cfg_.gpu, gpu_seed, eq_, as_, pt_, fb_,
                                     ac_, &link_);

  Driver::Deps deps{&eq_,  &as_,  &pt_, &fb_,           gpu_.get(),
                    &pma_, &dma_, &ac_, hazards_.get(), tracer_.get()};
  const std::uint64_t driver_seed = rng_.next_u64();
  driver_ = std::make_unique<Driver>(cfg_.driver, driver_seed, cfg_.costs,
                                     deps, cfg_.enable_fault_log);
  gpu_->set_interrupt_handler([this] { driver_->on_gpu_interrupt(); });
  if (hazards_) {
    gpu_->set_fault_drop_handler([this] { driver_->on_fault_dropped(); });
  }
}

RangeId Simulator::malloc_managed(std::uint64_t bytes, std::string name,
                                  bool host_populated) {
  return as_.create_range(bytes, std::move(name), host_populated);
}

void Simulator::launch(KernelSpec spec, std::uint32_t stream) {
  kernels_.push_back(std::make_unique<KernelSpec>(std::move(spec)));
  gpu_->launch(kernels_.back().get(), [this] { ++kernels_completed_; },
               stream);
}

void Simulator::prefill_all_resident() {
  for (std::size_t b = 0; b < as_.num_blocks(); ++b) {
    VaBlock& blk = as_.block(b);
    if (!blk.valid()) continue;
    blk.gpu_resident.set_range(0, blk.num_pages);
    blk.cpu_resident.clear();
    blk.backing.set_root();  // nominal backing
  }
}

RunResult Simulator::run() {
  eq_.run();

  if (kernels_completed_ != kernels_.size()) {
    throw SimulationError(
        "Simulator deadlock: event queue drained with " +
        std::to_string(kernels_.size() - kernels_completed_) +
        " kernel(s) unfinished (stalled warps without a pending replay?)");
  }

  RunResult r;
  r.end_time = eq_.now();
  r.kernels = gpu_->kernel_stats();
  r.counters = driver_->counters();
  r.profiler = driver_->profiler();
  if (cfg_.enable_fault_log) r.fault_log = driver_->fault_log().entries();

  r.bytes_h2d = link_.bytes_moved(Direction::HostToDevice);
  r.bytes_d2h = link_.bytes_moved(Direction::DeviceToHost);
  r.bytes_zero_copy = link_.zero_copy_bytes(Direction::HostToDevice) +
                      link_.zero_copy_bytes(Direction::DeviceToHost);
  r.transfers_h2d = link_.transfers(Direction::HostToDevice);
  r.transfers_d2h = link_.transfers(Direction::DeviceToHost);
  r.dma_copy_ops = dma_.copy_ops();

  r.buffer_pushed = fb_.total_pushed();
  r.buffer_dropped = fb_.total_dropped();
  r.buffer_flushed = fb_.total_flushed();
  r.buffer_max_occupancy = fb_.max_occupancy();

  r.pma_rm_calls = pma_.rm_calls();
  r.total_pages = as_.total_pages();
  r.total_bytes = as_.total_bytes();
  r.gpu_capacity_bytes = pma_.capacity_bytes();
  r.resident_pages_at_end = as_.gpu_resident_pages();
  for (std::size_t b = 0; b < as_.num_blocks(); ++b) {
    r.wasted_prefetch_at_end += as_.block(b).prefetched_unused.count();
  }

  if (hazards_) {
    r.hazards_enabled = true;
    r.hazards = hazards_->stats();
    r.dma_failed_runs = dma_.failed_runs();
    r.pma_failed_rm_calls = pma_.failed_rm_calls();
  }

  r.utlb_hits = gpu_->utlb_hits();
  r.utlb_misses = gpu_->utlb_misses();
  r.stall_latency = gpu_->stall_latency();
  r.fault_queue_latency = driver_->queue_latency();
  return r;
}

}  // namespace uvmsim
