// Pins the simulated output of runs whose warps retry parked lanes many
// times, in the cells that exercise each way a parked lane's outcome can
// change between two retries: a page gains GPU residency or a remote
// mapping (demand faults, tree and Markov prefetch, remote_map advice, the
// GPU-driven remote fallback, access-counter promotion), a µTLB insert
// (tiny µTLBs, where a parked lane can hit), a fault raised for a base-page
// group (64 KB, 256 KB and 2 MB host pages, groups as wide as the block),
// and fault entries the buffer drops (injected corruption).
//
// Each digest folds the run-summary CSV, the ordered fault log, the GPU
// engine's counters and every block's page masks, as StridedStepPins does.
// Both servicing backends run every cell, and each cell also checks that
// the mechanism it is there for fired. To re-capture after an *intentional*
// output change, run with UVMSIM_PARITY_PRINT=1 and paste the printed
// constants.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/report.h"
#include "core/simulator.h"
#include "fnv.h"
#include "workloads/registry.h"

namespace uvmsim {
namespace {

std::uint64_t mix_mask(std::uint64_t h, const PageMask& m) {
  for (std::uint32_t w = 0; w < PageMask::kWords; ++w) h = mix_u64(h, m.word(w));
  return h;
}

/// What a cell must show besides its digest, so a pin cannot silently stop
/// covering the mechanism it names.
enum class Fires : std::uint8_t {
  Throttled,        ///< lanes parked without a fault slot
  Coalesced,        ///< lanes parked behind a pending base-page group
  Prefetched,       ///< pages mapped that nobody faulted
  RemoteAccesses,   ///< lanes served over remote mappings
  RemoteFallback,   ///< GPU-driven pages remote-mapped for want of a victim
  Promoted,         ///< access-counter promotion of remote pages
  Dropped,          ///< fault entries lost to corruption
};

struct PinCase {
  const char* name;
  const char* workload;
  std::uint64_t size_mib;
  std::uint64_t gpu_mib;
  void (*tweak)(SimConfig&);           ///< null = stock config
  void (*post_setup)(Simulator&);      ///< advice after setup, or null
  Fires fires;
  std::uint64_t driver_golden;         ///< DriverCentric backend
  std::uint64_t gpu_golden;            ///< GpuDriven backend
};

void remote_map_all(Simulator& s) {
  MemAdvise a;
  a.remote_map = true;
  for (RangeId i = 0; i < s.address_space().num_ranges(); ++i) {
    s.mem_advise(i, a);
  }
}

const PinCase kCases[] = {
    {"sgemm-oversub-utlb1", "sgemm", 48, 32,
     [](SimConfig& c) { c.gpu.utlb_entries = 1; }, nullptr, Fires::Throttled,
     0x1e58aa1237736b93ULL, 0x353e4b7b22a2bd81ULL},
    {"sgemm-oversub-utlb3", "sgemm", 48, 32,
     [](SimConfig& c) { c.gpu.utlb_entries = 3; }, nullptr, Fires::Throttled,
     0xcfa135afbac7927dULL, 0xd04ffc4ed7bebd8dULL},
    {"random-oversub", "random", 48, 32, nullptr, nullptr,
     Fires::Prefetched,
     0x25dfce8d13293c2aULL, 0x1846476ff6542f09ULL},
    {"random-oversub-64k-pages", "random", 48, 32,
     [](SimConfig& c) { c.set_host_page_size(64 << 10); }, nullptr,
     Fires::Coalesced,
     0x6bb181fc6943ffd2ULL, 0x2f629b2b66fb42f6ULL},
    {"random-oversub-256k-pages", "random", 48, 32,
     [](SimConfig& c) { c.set_host_page_size(256 << 10); }, nullptr,
     Fires::Coalesced,
     0x228ac4d1610c763cULL, 0x2263fe6d23d51fbdULL},
    {"random-oversub-2m-pages", "random", 48, 32,
     [](SimConfig& c) { c.set_host_page_size(2 << 20); }, nullptr,
     Fires::Coalesced,
     0x542cc63f87e2a871ULL, 0xf080b7152c8785b5ULL},
    {"sgemm-oversub-256k-pages", "sgemm", 48, 32,
     [](SimConfig& c) { c.set_host_page_size(256 << 10); }, nullptr,
     Fires::Coalesced,
     0xf8f0da8d66e28578ULL, 0xf5087f9e81b71d02ULL},
    {"regular-oversub-tree", "regular", 48, 32, nullptr, nullptr,
     Fires::Prefetched,
     0x9ab6d42c56766852ULL, 0xe2fa35469bff76ebULL},
    {"random-oversub-markov", "random", 48, 32,
     [](SimConfig& c) { c.driver.prefetch = PrefetchMode::Markov; }, nullptr,
     Fires::Prefetched,
     0x7358c1a799a7462aULL, 0x1846476ff6542f09ULL},
    {"random-remote-map", "random", 24, 32, nullptr, &remote_map_all,
     Fires::RemoteAccesses,
     0x1c32a899dd2d8e83ULL, 0xd1765b911c0ef74aULL},
    {"regular-no-victim", "regular", 2, 1, nullptr, nullptr,
     Fires::RemoteFallback,
     0x6af5460fa2bebe03ULL, 0xbc25f2fc19547915ULL},
    {"regular-remote-promotion", "regular", 8, 32,
     [](SimConfig& c) {
       c.driver.access_counter_migration = true;
       c.access_counters.threshold = 16;
     },
     &remote_map_all, Fires::Promoted,
     0x169298aa8096fa18ULL, 0xc523dbb552d2d366ULL},
    {"random-oversub-fb-corrupt", "random", 48, 32,
     [](SimConfig& c) { c.hazards.fb_corrupt_rate = 0.2; }, nullptr,
     Fires::Dropped,
     0x57635e52328d39a1ULL, 0xcafb070b9052b3a7ULL},
};

std::uint64_t run_digest(const PinCase& c, ServicingBackendKind backend) {
  SimConfig cfg;
  cfg.set_gpu_memory(c.gpu_mib << 20);
  cfg.enable_fault_log = true;
  if (c.tweak != nullptr) c.tweak(cfg);
  cfg.driver.backend = backend;
  Simulator sim(cfg);
  auto wl = make_workload(c.workload, c.size_mib << 20);
  wl->setup(sim);
  if (c.post_setup != nullptr) c.post_setup(sim);
  RunResult r = sim.run();

  // Every cell parks lanes that later replays retry.
  EXPECT_GT(sim.gpu().faults_throttled() + sim.gpu().faults_coalesced(), 0u)
      << c.name;
  switch (c.fires) {
    case Fires::Throttled:
      EXPECT_GT(sim.gpu().faults_throttled(), 0u) << c.name;
      break;
    case Fires::Coalesced:
      EXPECT_GT(sim.gpu().faults_coalesced(), 0u) << c.name;
      break;
    case Fires::Prefetched:
      if (backend == ServicingBackendKind::DriverCentric) {
        EXPECT_GT(r.counters.pages_prefetched, 0u) << c.name;
      }
      break;
    case Fires::RemoteAccesses:
      EXPECT_GT(sim.gpu().remote_accesses(), 0u) << c.name;
      break;
    case Fires::RemoteFallback:
      EXPECT_GT(sim.gpu().remote_accesses(), 0u) << c.name;
      if (backend == ServicingBackendKind::GpuDriven) {
        EXPECT_GT(r.counters.gpu_remote_fallback_pages, 0u) << c.name;
      }
      break;
    case Fires::Promoted:
      EXPECT_GT(r.counters.counter_promoted_pages, 0u) << c.name;
      break;
    case Fires::Dropped:
      EXPECT_GT(r.buffer_dropped, 0u) << c.name;
      break;
  }

  std::uint64_t h = kPinnedFnvOffset;
  const std::string csv = run_summary_table(r).to_csv();
  h = fnv1a64(h, csv.data(), csv.size());
  for (const FaultLogEntry& e : r.fault_log) {
    h = mix_u64(h, e.order);
    h = mix_u64(h, e.time);
    h = mix_u64(h, static_cast<std::uint64_t>(e.kind));
    h = mix_u64(h, e.page);
  }
  h = mix_u64(h, r.end_time);
  h = mix_u64(h, r.utlb_hits);
  h = mix_u64(h, r.utlb_misses);
  h = mix_u64(h, r.bytes_zero_copy);
  h = mix_u64(h, sim.gpu().remote_accesses());
  h = mix_u64(h, sim.gpu().faults_coalesced());
  h = mix_u64(h, sim.gpu().faults_throttled());
  for (const KernelStats& k : r.kernels) {
    h = mix_u64(h, k.page_touches);
    h = mix_u64(h, k.faults_raised);
    h = mix_u64(h, k.stall_ns);
    h = mix_u64(h, k.completed_at);
  }
  const AddressSpace& as = sim.address_space();
  for (VaBlockId b = 0; b < as.num_blocks(); ++b) {
    const VaBlock& blk = as.block(b);
    h = mix_mask(h, blk.gpu_resident);
    h = mix_mask(h, blk.cpu_resident);
    h = mix_mask(h, blk.dirty);
    h = mix_mask(h, blk.ever_populated);
    h = mix_mask(h, blk.read_duplicated);
    h = mix_mask(h, blk.remote_mapped);
    h = mix_mask(h, blk.prefetched_unused);
  }
  return h;
}

void check(ServicingBackendKind backend) {
  const bool print = std::getenv("UVMSIM_PARITY_PRINT") != nullptr;
  const bool gpu = backend == ServicingBackendKind::GpuDriven;
  for (const PinCase& c : kCases) {
    const std::uint64_t got = run_digest(c, backend);
    if (print) {
      std::printf("pin %s %-32s 0x%016llxULL\n", gpu ? "gpu" : "drv", c.name,
                  static_cast<unsigned long long>(got));
    }
    EXPECT_EQ(gpu ? c.gpu_golden : c.driver_golden, got)
        << c.name << ": digest diverged from golden";
  }
}

TEST(ParkedRetryPins, DriverBackend) {
  check(ServicingBackendKind::DriverCentric);
}

TEST(ParkedRetryPins, GpuDrivenBackend) {
  check(ServicingBackendKind::GpuDriven);
}

}  // namespace
}  // namespace uvmsim
