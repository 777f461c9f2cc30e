// Public facade: wires the whole system together and runs it.
//
//   uvmsim::SimConfig cfg;                       // tweak knobs as needed
//   uvmsim::Simulator sim(cfg);
//   auto a = sim.malloc_managed(64 << 20, "a");  // managed allocation
//   sim.launch(my_kernel_spec);                  // queue kernels
//   uvmsim::RunResult r = sim.run();             // drive to completion
//
// One Simulator = one application run. Instances are single-threaded and
// deterministic for a fixed config; parameter sweeps run independent
// instances in parallel (bench::SweepRunner, campaign::TaskExecutor).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/run_result.h"
#include "gpu/access_counters.h"
#include "gpu/fault_buffer.h"
#include "gpu/gpu_engine.h"
#include "mem/address_space.h"
#include "mem/dma_engine.h"
#include "mem/interconnect.h"
#include "mem/pma.h"
#include "sim/event_queue.h"
#include "sim/hazards.h"
#include "sim/rng.h"
#include "sim/trace.h"
#include "uvm/cost_model.h"
#include "uvm/driver.h"
#include "uvm/driver_config.h"

namespace uvmsim {

struct SimConfig {
  GpuEngine::Config gpu;
  FaultBuffer::Config fault_buffer;
  AccessCounters::Config access_counters;
  PhysicalMemoryAllocator::Config pma;  ///< pma.capacity_bytes = GPU memory
  Interconnect::Config interconnect;
  DmaEngine::Config dma;
  DriverConfig driver;
  CostModel costs;
  /// Deterministic hazard injection (all rates 0 = disabled; a disabled
  /// injector leaves the run bit-identical to one without the subsystem).
  HazardConfig hazards;
  /// Structured driver-pass tracing (trace.enabled = false keeps the run
  /// byte-identical to one without the subsystem: no tracer is built and
  /// the driver's hooks reduce to a null-pointer test).
  TraceConfig trace;
  /// Record the per-fault trace (disable for very large sweeps).
  bool enable_fault_log = true;
  std::uint64_t seed = 42;

  /// GPU memory size shorthand.
  [[nodiscard]] std::uint64_t gpu_memory() const { return pma.capacity_bytes; }
  void set_gpu_memory(std::uint64_t bytes) { pma.capacity_bytes = bytes; }

  /// Host base-page size (4 KB = x86 default, 64 KB = Power9): sets the
  /// fault granularity the GPU coalesces at and the driver services at,
  /// and disables the now-redundant big-page upgrade when the base page
  /// already is 64 KB.
  void set_host_page_size(std::uint64_t bytes) {
    auto pages = static_cast<std::uint32_t>(bytes / kPageSize);
    gpu.fault_granularity_pages = pages;
    if (pages >= kPagesPerBigPage) driver.big_page_upgrade = false;
  }

  /// Throws the first violated constraint as a ConfigError whose param is
  /// the field path (e.g. "driver.batch_size"). The Simulator calls it
  /// before building anything; it is the only place a SimConfig field is
  /// checked.
  void validate() const;
};

class Simulator {
 public:
  explicit Simulator(const SimConfig& cfg);

  /// cudaMallocManaged(): creates a managed range. When `host_populated`,
  /// pages start with valid data on the host (the usual init-on-CPU flow).
  RangeId malloc_managed(std::uint64_t bytes, std::string name,
                         bool host_populated = true);

  /// Queues a kernel on `stream`. Kernels in one stream run back to back in
  /// launch order; kernels in different streams execute concurrently,
  /// sharing the SM array (CUDA stream semantics).
  void launch(KernelSpec spec, std::uint32_t stream = 0);

  /// cudaMemAdvise(): applies usage hints to a range. Affects how future
  /// faults on it are serviced (remote mapping, read duplication,
  /// preferred location).
  void mem_advise(RangeId id, const MemAdvise& advise) {
    as_.set_advise(id, advise);
  }

  /// cudaMemPrefetchAsync() to the GPU: bulk-migrates the whole range in
  /// coalesced transfers through the driver (evicting if necessary).
  /// Returns the simulated completion time. Call before run(); queued
  /// kernels observe the pages as resident.
  SimTime prefetch_async(RangeId id) {
    const VaRange& r = as_.range(id);
    return driver_->prefetch_pages(r.first_page, r.num_pages);
  }

  /// Host-side access to a whole range (e.g. reading results back): GPU-only
  /// pages migrate device-to-host; a write invalidates GPU copies. Call
  /// between run() phases.
  SimTime host_access(RangeId id, bool write) {
    const VaRange& r = as_.range(id);
    return driver_->service_cpu_access(r.first_page, r.num_pages, write);
  }

  /// Marks every managed page GPU-resident without cost — the idealized
  /// explicit-transfer starting state used by the baseline model. Bypasses
  /// the PMA (capacity checks do not apply to baseline runs).
  void prefill_all_resident();

  /// Runs the event loop to completion and snapshots the results.
  /// Throws if the simulation deadlocks (stalled warps with no pending
  /// events — indicates a driver/GPU protocol bug).
  RunResult run();

  // Subsystem access (tests, analysis, custom experiments).
  [[nodiscard]] AddressSpace& address_space() { return as_; }
  [[nodiscard]] EventQueue& event_queue() { return eq_; }
  [[nodiscard]] GpuEngine& gpu() { return *gpu_; }
  [[nodiscard]] Driver& driver() { return *driver_; }
  [[nodiscard]] FaultBuffer& fault_buffer() { return fb_; }
  [[nodiscard]] PhysicalMemoryAllocator& pma() { return pma_; }
  [[nodiscard]] Interconnect& interconnect() { return link_; }
  [[nodiscard]] AccessCounters& access_counters() { return ac_; }
  /// Null unless tracing is enabled in the config.
  [[nodiscard]] const Tracer* tracer() const { return tracer_.get(); }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }

  /// Kernels queued so far (trace capture, inspection). Pointers remain
  /// valid for the simulator's lifetime.
  [[nodiscard]] std::vector<const KernelSpec*> queued_kernels() const {
    std::vector<const KernelSpec*> out;
    out.reserve(kernels_.size());
    for (const auto& k : kernels_) out.push_back(k.get());
    return out;
  }

 private:
  SimConfig cfg_;
  EventQueue eq_;
  Rng rng_;
  std::unique_ptr<HazardInjector> hazards_;
  std::unique_ptr<Tracer> tracer_;
  AddressSpace as_;
  FaultBuffer fb_;
  AccessCounters ac_;
  PhysicalMemoryAllocator pma_;
  Interconnect link_;
  DmaEngine dma_;
  std::unique_ptr<GpuEngine> gpu_;
  std::unique_ptr<Driver> driver_;
  std::vector<std::unique_ptr<KernelSpec>> kernels_;  ///< stable addresses
  std::size_t kernels_completed_ = 0;
};

}  // namespace uvmsim
