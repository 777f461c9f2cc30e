// Pins the simulated output of strided-record workloads in the cells where
// GpuEngine's warp step must leave its all-resident word-level path or stay
// exact inside it: missing lanes under oversubscription, tiny µTLBs, access
// counters on, 64 KB host pages, remote-mapped and read-duplicated ranges.
// Cells BackendParity already pins are left out.
//
// Each digest folds the run-summary CSV, the ordered fault log, the GPU
// engine's counters and every block's page masks, so a change to one lane's
// µTLB outcome or one mask bit shows up. Both servicing backends run every
// cell. To re-capture after an *intentional* output change, run with
// UVMSIM_PARITY_PRINT=1 and paste the printed constants.
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

struct PinCase {
  const char* name;
  const char* workload;
  std::uint64_t size_mib;
  std::uint64_t gpu_mib;
  void (*tweak)(SimConfig&);           ///< null = stock config
  void (*post_setup)(Simulator&);      ///< advice after setup, or null
  std::uint64_t driver_golden;         ///< DriverCentric backend
  std::uint64_t gpu_golden;            ///< GpuDriven backend
};

void remote_map_range0(Simulator& s) {
  MemAdvise a;
  a.remote_map = true;
  s.mem_advise(0, a);
}

void read_mostly_all(Simulator& s) {
  MemAdvise a;
  a.read_mostly = true;
  for (RangeId i = 0; i < s.address_space().num_ranges(); ++i) {
    s.mem_advise(i, a);
  }
}

const PinCase kCases[] = {
    {"sgemm-oversub", "sgemm", 48, 32, nullptr, nullptr,
     0x45d8a26e47eea8bdULL, 0x7e90a542bb48a9b1ULL},
    {"strided-oversub", "strided", 128, 16, nullptr, nullptr,
     0xc9a5c085f3335f4fULL, 0xee0a959080627208ULL},
    {"sgemm-utlb1", "sgemm", 24, 32,
     [](SimConfig& c) { c.gpu.utlb_entries = 1; }, nullptr,
     0xd758e0320003ff83ULL, 0xb16f1fe4d387789cULL},
    {"sgemm-utlb3", "sgemm", 24, 32,
     [](SimConfig& c) { c.gpu.utlb_entries = 3; }, nullptr,
     0xa11a1bf14ea0f7d6ULL, 0x144c9cd71d8bd0ecULL},
    {"regular-utlb1", "regular", 16, 32,
     [](SimConfig& c) { c.gpu.utlb_entries = 1; }, nullptr,
     0x3ca0a19bd537f6faULL, 0xbbefd71ff490aa32ULL},
    {"sgemm-access-counter", "sgemm", 24, 32,
     [](SimConfig& c) {
       c.driver.eviction_policy = EvictionPolicyKind::AccessCounter;
     },
     nullptr, 0x040cf134ad3955edULL, 0x3370fd9762836519ULL},
    {"sgemm-64k-pages", "sgemm", 24, 32,
     [](SimConfig& c) { c.set_host_page_size(64 << 10); }, nullptr,
     0x1b2ee5a3b4066272ULL, 0xc06754e42629a20aULL},
    {"strided-oversub-64k-pages", "strided", 128, 16,
     [](SimConfig& c) { c.set_host_page_size(64 << 10); }, nullptr,
     0x962c99cd82e547cbULL, 0x457c4dff1e0a453cULL},
    {"sgemm-remote-map-a", "sgemm", 24, 32, nullptr, &remote_map_range0,
     0xac3c7de41c70d46bULL, 0x9d590fa4e005b11cULL},
    {"regular-remote-map", "regular", 16, 32, nullptr, &remote_map_range0,
     0xd6ee9cee85deae0bULL, 0x574a060f83af5ef9ULL},
    {"sgemm-read-mostly", "sgemm", 24, 32, nullptr, &read_mostly_all,
     0x8be8428611df3b95ULL, 0xd59852824bb48ef9ULL},
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

TEST(StridedStepPins, DriverBackend) {
  check(ServicingBackendKind::DriverCentric);
}

TEST(StridedStepPins, GpuDrivenBackend) {
  check(ServicingBackendKind::GpuDriven);
}

}  // namespace
}  // namespace uvmsim
