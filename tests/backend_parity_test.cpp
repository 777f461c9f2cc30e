// Backend-parity suite: pins the observable output of both pass bodies,
// Driver::driver_pass and Driver::gpu_driven_pass.
//
// Each case hashes the run summary CSV (what uvmsim_cli prints) plus the
// complete FaultLog. The batched pass runs every case through
// campaign::TaskExecutor at 1 and 4 workers (the two UVMSIM_THREADS
// settings the suite guarantees; the executor's `threads` argument is
// exactly what default_workers() resolves the env var to); the GPU-driven
// pass runs each case once against kGpuGoldens. Any refactor of either
// body must keep every digest.
//
// To re-capture after an *intentional* output change, run with
// UVMSIM_PARITY_PRINT=1 and paste the printed constants.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/executor.h"
#include "core/fault_log.h"
#include "core/report.h"
#include "core/simulator.h"
#include "workloads/registry.h"

namespace uvmsim {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a64(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a64(h, &v, sizeof v);
}

struct ParityCase {
  const char* name;
  const char* workload;
  std::uint64_t size_mib;
  std::uint64_t gpu_mib;
  void (*tweak)(SimConfig&);  ///< null = stock config
  std::uint64_t golden;       ///< batched-pass digest
};

// Seven configs spanning the servicing path's policy space: stock
// undersubscribed, oversubscribed random access, prefetch off, per-batch
// replay, adaptive prefetch, oversubscription with chunking disabled, and
// Once replay under PMA and DMA hazards (the end-of-run replay in
// run_pass's continuation and back_page's transient-retry loop).
const ParityCase kCases[] = {
    {"regular-default", "regular", 24, 64, nullptr, 0x5f4033a422753b47ULL},
    {"random-oversub", "random", 48, 32, nullptr, 0x7f99233882838422ULL},
    {"sgemm-prefetch-off", "sgemm", 24, 32,
     [](SimConfig& c) { c.driver.prefetch = PrefetchMode::Off; },
     0x6aa4bf0106287609ULL},
    {"stream-replay-batch", "stream", 16, 64,
     [](SimConfig& c) { c.driver.replay_policy = ReplayPolicyKind::Batch; },
     0xf92de0381bfc3af6ULL},
    {"tealeaf-adaptive", "tealeaf", 24, 32,
     [](SimConfig& c) { c.driver.prefetch = PrefetchMode::Adaptive; },
     0x14cde0a26b039608ULL},
    {"hpgmg-oversub-nochunk", "hpgmg", 40, 32,
     [](SimConfig& c) {
       c.driver.chunking.enabled = false;
       c.driver.prefetch = PrefetchMode::Off;
     },
     0x826af726f0117d47ULL},
    {"random-oversub-once-hazards", "random", 48, 32,
     [](SimConfig& c) {
       c.driver.replay_policy = ReplayPolicyKind::Once;
       c.hazards.pma_fail_rate = 0.1;
       c.hazards.dma_fail_rate = 0.1;
     },
     0xa0db28e4aa8248b7ULL},
};
constexpr std::size_t kNumCases = sizeof(kCases) / sizeof(kCases[0]);

/// Runs one case and digests everything a user of the run can observe:
/// the summary table CSV and the ordered fault/prefetch/eviction log.
std::uint64_t run_digest(const ParityCase& c,
                         ServicingBackendKind backend =
                             ServicingBackendKind::DriverCentric) {
  SimConfig cfg;
  cfg.set_gpu_memory(c.gpu_mib << 20);
  cfg.enable_fault_log = true;
  if (c.tweak != nullptr) c.tweak(cfg);
  cfg.driver.backend = backend;
  Simulator sim(cfg);
  auto wl = make_workload(c.workload, c.size_mib << 20);
  wl->setup(sim);
  RunResult r = sim.run();

  std::uint64_t h = kFnvOffset;
  const std::string csv = run_summary_table(r).to_csv();
  h = fnv1a64(h, csv.data(), csv.size());
  for (const FaultLogEntry& e : sim.driver().fault_log().entries()) {
    h = mix_u64(h, e.order);
    h = mix_u64(h, e.time);
    h = mix_u64(h, static_cast<std::uint64_t>(e.kind));
    h = mix_u64(h, e.page);
    h = mix_u64(h, e.block);
    h = mix_u64(h, e.range);
    h = mix_u64(h, e.duplicate ? 1u : 0u);
  }
  return h;
}

void check_with_threads(std::size_t threads) {
  const bool print = std::getenv("UVMSIM_PARITY_PRINT") != nullptr;
  campaign::TaskExecutor ex(threads);
  auto outs =
      ex.map_capture(kNumCases, [](std::size_t i) { return run_digest(kCases[i]); });
  for (std::size_t i = 0; i < kNumCases; ++i) {
    ASSERT_TRUE(outs[i].ok()) << kCases[i].name << ": " << outs[i].error;
    const std::uint64_t got = *outs[i].value;
    if (print) {
      std::printf("parity golden %-24s 0x%016llxULL\n", kCases[i].name,
                  static_cast<unsigned long long>(got));
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(got));
    char want[32];
    std::snprintf(want, sizeof want, "0x%016llx",
                  static_cast<unsigned long long>(kCases[i].golden));
    EXPECT_STREQ(want, buf) << kCases[i].name << " (threads=" << threads
                            << ") diverged from the pre-refactor output";
  }
}

TEST(BackendParity, ByteIdenticalSerial) { check_with_threads(1); }

TEST(BackendParity, ByteIdenticalFourWorkers) { check_with_threads(4); }

// --- GPU-driven backend ----------------------------------------------------

/// GPU-driven backend digests (capture with UVMSIM_PARITY_PRINT=1, same
/// recapture rule as kCases).
const std::uint64_t kGpuGoldens[kNumCases] = {
    0x109e7861941ac002ULL, 0xa87bad84430c5814ULL, 0x3d8a91c0bedb1c65ULL,
    0xdcc58338ed10fc1dULL, 0x23622d08714b4605ULL, 0x16692230b71d7ac2ULL,
    0x5df76fad8ac06ff1ULL,
};

TEST(BackendParity, ByteIdenticalGpuDriven) {
  const bool print = std::getenv("UVMSIM_PARITY_PRINT") != nullptr;
  for (std::size_t i = 0; i < kNumCases; ++i) {
    const std::uint64_t got =
        run_digest(kCases[i], ServicingBackendKind::GpuDriven);
    if (print) {
      std::printf("parity golden gpu %-24s 0x%016llxULL\n", kCases[i].name,
                  static_cast<unsigned long long>(got));
    }
    EXPECT_EQ(kGpuGoldens[i], got)
        << kCases[i].name << ": digest diverged from golden";
  }
}

}  // namespace
}  // namespace uvmsim
