// ServicingBackend — the seam between the driver shell and the mechanism
// that actually resolves GPU faults.
//
// Driver::run_pass() owns everything backend-agnostic: the processing
// guard, pass bookkeeping, adaptive-prefetch feedback, and the end-of-pass
// continuation. What happens *inside* a pass — how faults leave the buffer,
// what latency structure they pay, how pages get backing and mappings — is
// the backend's. Two implementations exist as peers:
//
//   DriverCentricBackend  the paper's CPU-driver path (batch fetch →
//                         preprocess → per-VABlock service → replay),
//                         byte-identical to the historical inline code;
//   GpuDrivenBackend      GPUVM-style (arxiv 2411.05309) per-fault GPU-side
//                         resolution over a bounded RDMA queue.
//
// The base class is also the single friend surface into Driver: backends
// reach driver internals only through the protected shims below, so adding
// a backend never widens Driver's friend list.
#pragma once

#include <cstdint>

#include "uvm/driver.h"

namespace uvmsim {

class ServicingBackend {
 public:
  virtual ~ServicingBackend() = default;
  ServicingBackend(const ServicingBackend&) = delete;
  ServicingBackend& operator=(const ServicingBackend&) = delete;

  /// Runs the body of one servicing pass. Called by Driver::run_pass()
  /// after the guard and pass bookkeeping; returns the advanced time
  /// cursor at which the driver shell schedules the pass continuation.
  virtual SimTime service_pass() = 0;

  /// Delay from the GPU raising its first fault signal to this backend's
  /// servicing code running (interrupt latency for the CPU driver, queue
  /// visibility for GPU-side resolution).
  [[nodiscard]] virtual SimDuration wake_latency() const = 0;

  [[nodiscard]] virtual const char* name() const = 0;

 protected:
  explicit ServicingBackend(Driver& drv) : drv_(drv) {}

  // --- driver-internal state (the friend surface) ---
  [[nodiscard]] const DriverConfig& config() const;
  [[nodiscard]] const CostModel& costs() const;
  [[nodiscard]] Driver::Deps& deps();
  [[nodiscard]] DriverCounters& counters();
  [[nodiscard]] Profiler& profiler();
  [[nodiscard]] FaultLog& log();
  [[nodiscard]] EvictionPolicy& eviction();
  [[nodiscard]] LogHistogram& queue_latency();

  // --- pass building blocks implemented by the driver ---
  SimTime service_bin(const FaultBatch::Bin& bin, SimTime t);
  SimTime issue_replay(SimTime t, std::uint64_t groups = 1);
  SimTime flush_buffer(SimTime t);
  SimTime drain_access_counters(SimTime t);
  [[nodiscard]] ReplayPolicyKind effective_replay_policy(SimTime t) const;
  /// Chunk-granular eviction of one victim (advances `t`); false when no
  /// eligible victim exists and the caller must degrade.
  bool evict_victim(SimTime& t, VaBlockId faulting_block,
                    std::uint64_t want_bytes);

  // --- tracing shims (single pointer test when tracing is off) ---
  void trace_span(TraceCategory c, const char* name, SimTime t0, SimTime t1,
                  std::uint64_t id = 0, const char* a1n = nullptr,
                  std::uint64_t a1 = 0, const char* a2n = nullptr,
                  std::uint64_t a2 = 0, const char* a3n = nullptr,
                  std::uint64_t a3 = 0);
  void trace_instant(TraceCategory c, const char* name, SimTime t,
                     std::uint64_t id = 0, const char* a1n = nullptr,
                     std::uint64_t a1 = 0, const char* a2n = nullptr,
                     std::uint64_t a2 = 0);

  Driver& drv_;
};

}  // namespace uvmsim
