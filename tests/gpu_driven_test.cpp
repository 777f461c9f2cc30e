// GPU-driven pass body (DriverConfig::backend = GpuDriven): per-fault
// GPU-side resolution, the GPUVM model in src/uvm/gpu_driven.cpp.
#include <gtest/gtest.h>

#include "core/simulator.h"
#include "workloads/random_access.h"
#include "workloads/regular.h"

namespace uvmsim {
namespace {

SimConfig gpu_cfg(std::uint64_t gpu_bytes = 32ull << 20) {
  SimConfig cfg;
  cfg.set_gpu_memory(gpu_bytes);
  cfg.driver.backend = ServicingBackendKind::GpuDriven;
  return cfg;
}

TEST(GpuDriven, CompletesWithPerFaultResolution) {
  Simulator sim(gpu_cfg());
  RegularTouch wl(8ull << 20);  // 2048 pages, fits in GPU memory
  wl.setup(sim);
  RunResult r = sim.run();

  EXPECT_GT(r.total_kernel_time(), 0u);
  EXPECT_EQ(r.resident_pages_at_end, 2048u);
  // Every page crossed the link exactly once, as a page-granular RDMA read
  // — pipelined wire transactions, so the bulk-transfer counter stays zero
  // and the bytes land in the zero-copy accounting.
  EXPECT_EQ(r.counters.pages_migrated_h2d, 2048u);
  EXPECT_EQ(r.counters.gpu_page_fetches, 2048u);
  EXPECT_EQ(r.bytes_h2d, 0u);
  EXPECT_EQ(r.bytes_zero_copy, 8ull << 20);

  // No batch machinery ran: no batches, no polls, no prefetch.
  EXPECT_GT(r.counters.gpu_resolved_faults, 0u);
  EXPECT_EQ(r.counters.batches, 0u);
  EXPECT_EQ(r.counters.polls, 0u);
  EXPECT_EQ(r.counters.pages_prefetched, 0u);

  // Fault conservation on the per-fault path: every popped entry is either
  // resolved or stale (duplicates surface as stale, never as a separate
  // preprocessing count).
  EXPECT_EQ(r.counters.faults_fetched,
            r.counters.faults_serviced + r.counters.stale_faults);
  EXPECT_EQ(r.counters.gpu_resolved_faults, r.counters.faults_serviced);
}

TEST(GpuDriven, DeterministicForSameSeed) {
  auto run_once = [] {
    Simulator sim(gpu_cfg());
    RandomTouch wl(4ull << 20);
    wl.setup(sim);
    return sim.run();
  };
  RunResult a = run_once();
  RunResult b = run_once();
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.counters.faults_fetched, b.counters.faults_fetched);
  EXPECT_EQ(a.counters.gpu_queue_stalls, b.counters.gpu_queue_stalls);
  EXPECT_EQ(a.counters.gpu_queue_stall_ns, b.counters.gpu_queue_stall_ns);
  ASSERT_EQ(a.fault_log.size(), b.fault_log.size());
  for (std::size_t i = 0; i < a.fault_log.size(); ++i) {
    EXPECT_EQ(a.fault_log[i].page, b.fault_log[i].page);
    EXPECT_EQ(a.fault_log[i].time, b.fault_log[i].time);
  }
}

TEST(GpuDriven, BoundedQueueContention) {
  auto run_with_slots = [](std::uint32_t slots) {
    SimConfig cfg = gpu_cfg();
    cfg.costs.gpu_driven.queue_slots = slots;
    Simulator sim(cfg);
    RegularTouch wl(8ull << 20);
    wl.setup(sim);
    return sim.run();
  };
  RunResult narrow = run_with_slots(1);
  RunResult wide = run_with_slots(256);

  // A single resolution slot serializes every fault in a drain; a wide
  // queue absorbs the burst.
  EXPECT_GT(narrow.counters.gpu_queue_stalls, wide.counters.gpu_queue_stalls);
  EXPECT_GT(narrow.counters.gpu_queue_stall_ns,
            wide.counters.gpu_queue_stall_ns);
  EXPECT_GT(narrow.total_kernel_time(), wide.total_kernel_time());
}

TEST(GpuDriven, DegradesToRemoteMappingWithoutVictims) {
  // One 2 MB block of demand against a 1 MB GPU: once memory is exhausted
  // the only backed block is the faulting block itself, so no eviction
  // victim is ever eligible and the overflow pages must fall back to
  // host-pinned remote mappings instead of failing the run.
  Simulator sim(gpu_cfg(1ull << 20));
  RegularTouch wl(2ull << 20);
  wl.setup(sim);
  RunResult r = sim.run();

  EXPECT_GT(r.counters.gpu_remote_fallback_pages, 0u);
  EXPECT_GT(r.counters.eviction_victim_unavailable, 0u);
  // Remote-mapped pages never consume GPU memory.
  EXPECT_LE(r.resident_pages_at_end, (1ull << 20) / kPageSize);
  EXPECT_GT(r.total_kernel_time(), 0u);
}

TEST(GpuDriven, NeverFetchesMuchMoreThanFootprint) {
  // The driver path's 2 MB allocation amplification cannot happen here:
  // page-granular fetches move one footprint of data plus only the re-fetch
  // of pages that were evicted and then touched again, even when scattered
  // accesses oversubscribe the GPU. Allow 5% for that thrash re-fetch — the
  // driver path amplifies by whole multiples under the same workload.
  SimConfig cfg = gpu_cfg(16ull << 20);
  Simulator sim(cfg);
  RandomTouch wl(32ull << 20);  // 2x oversubscribed
  wl.setup(sim);
  RunResult r = sim.run();

  EXPECT_GT(r.counters.gpu_resolved_faults, 0u);
  EXPECT_LE(r.bytes_h2d + r.counters.gpu_page_fetches * kPageSize,
            r.total_bytes + r.total_bytes / 20);
}

TEST(GpuDriven, BackendSelectionIsVisible) {
  Simulator sim(gpu_cfg());
  EXPECT_EQ(sim.driver().config().backend, ServicingBackendKind::GpuDriven);
  EXPECT_EQ(to_string(ServicingBackendKind::GpuDriven),
            std::string("gpu"));
  EXPECT_EQ(to_string(ServicingBackendKind::DriverCentric),
            std::string("driver"));
}

}  // namespace
}  // namespace uvmsim
