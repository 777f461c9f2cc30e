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
// kPopulationCases cover every caller of the driver's page-population step
// (Markov speculation, thrash pinning, remote-map advice, bulk prefetch,
// access-counter promotion, pipelined read-duplicated migration); their
// digests also fold in every Profiler category total, so a charge that
// moves between ServiceZero, ServiceMigrate and ServiceMap shows up.
//
// To re-capture after an *intentional* output change, run with
// UVMSIM_PARITY_PRINT=1 and paste the printed constants.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
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
  /// Advice and prefetch calls made after the workload's setup (null =
  /// none).
  void (*post_setup)(Simulator&) = nullptr;
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

/// Applies `advise` to every managed range of `sim`.
void advise_all(Simulator& sim, const MemAdvise& advise) {
  for (RangeId i = 0; i < sim.address_space().num_ranges(); ++i) {
    sim.mem_advise(i, advise);
  }
}

// One case per caller of the page-population step, each under the pressure
// or hazard that drives its edge paths.
const ParityCase kPopulationCases[] = {
    {"regular-oversub-markov", "regular", 48, 32,
     [](SimConfig& c) { c.driver.prefetch = PrefetchMode::Markov; },
     0x84ec7336cf0d4da2ULL, nullptr},
    {"random-oversub-thrash-pin", "random", 48, 32,
     [](SimConfig& c) { c.driver.thrashing.enabled = true; },
     0x9c454617df246552ULL, nullptr},
    {"random-remote-map", "random", 24, 32, nullptr, 0xe9add32d012a3bb3ULL,
     [](Simulator& s) {
       MemAdvise a;
       a.remote_map = true;
       advise_all(s, a);
     }},
    {"random-oversub-prefetch-async", "random", 48, 32, nullptr,
     0x7673a7fda481b884ULL,
     [](Simulator& s) {
       for (RangeId i = 0; i < s.address_space().num_ranges(); ++i) {
         s.prefetch_async(i);
       }
     }},
    // A 1 MB GPU cannot hold the 2 MB root chunk bulk prefetch asks for
    // and has no victim to evict: every block is skipped.
    {"regular-prefetch-async-no-victim", "regular", 4, 1, nullptr,
     0xb1ed4e615778dfb6ULL,
     [](Simulator& s) { s.prefetch_async(0); }},
    {"hpgmg-counter-promotion", "hpgmg", 16, 32,
     [](SimConfig& c) {
       c.access_counters.threshold = 48;
       c.driver.access_counter_migration = true;
     },
     0x0b05b88de518692aULL,
     [](Simulator& s) {
       MemAdvise a;
       a.remote_map = true;
       advise_all(s, a);
     }},
    {"sgemm-oversub-pipelined-read-mostly", "sgemm", 48, 32,
     [](SimConfig& c) { c.driver.pipelined_migrations = true; },
     0xa03f9844ebefb135ULL,
     [](Simulator& s) {
       MemAdvise a;
       a.read_mostly = true;
       advise_all(s, a);
     }},
};
constexpr std::size_t kNumPopulationCases =
    sizeof(kPopulationCases) / sizeof(kPopulationCases[0]);

/// Runs one case and digests everything a user of the run can observe:
/// the summary table CSV and the ordered fault/prefetch/eviction log, plus
/// (with `with_profile`) every Profiler category total.
std::uint64_t run_digest(const ParityCase& c, ServicingBackendKind backend,
                         bool with_profile) {
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
  if (with_profile) {
    for (std::size_t k = 0; k < Profiler::kNumCategories; ++k) {
      h = mix_u64(h, static_cast<std::uint64_t>(sim.driver().profiler().total(
                         static_cast<CostCategory>(k))));
    }
  }
  return h;
}

void check_with_threads(std::span<const ParityCase> cases, bool with_profile,
                        std::size_t threads) {
  const bool print = std::getenv("UVMSIM_PARITY_PRINT") != nullptr;
  campaign::TaskExecutor ex(threads);
  auto outs = ex.map_capture(cases.size(), [&](std::size_t i) {
    return run_digest(cases[i], ServicingBackendKind::DriverCentric,
                      with_profile);
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(outs[i].ok()) << cases[i].name << ": " << outs[i].error;
    const std::uint64_t got = *outs[i].value;
    if (print) {
      std::printf("parity golden %-24s 0x%016llxULL\n", cases[i].name,
                  static_cast<unsigned long long>(got));
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(got));
    char want[32];
    std::snprintf(want, sizeof want, "0x%016llx",
                  static_cast<unsigned long long>(cases[i].golden));
    EXPECT_STREQ(want, buf) << cases[i].name << " (threads=" << threads
                            << ") diverged from the pre-refactor output";
  }
}

void check_gpu_driven(std::span<const ParityCase> cases,
                      std::span<const std::uint64_t> goldens,
                      bool with_profile) {
  const bool print = std::getenv("UVMSIM_PARITY_PRINT") != nullptr;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::uint64_t got =
        run_digest(cases[i], ServicingBackendKind::GpuDriven, with_profile);
    if (print) {
      std::printf("parity golden gpu %-24s 0x%016llxULL\n", cases[i].name,
                  static_cast<unsigned long long>(got));
    }
    EXPECT_EQ(goldens[i], got)
        << cases[i].name << ": digest diverged from golden";
  }
}

TEST(BackendParity, ByteIdenticalSerial) {
  check_with_threads(kCases, false, 1);
}

TEST(BackendParity, ByteIdenticalFourWorkers) {
  check_with_threads(kCases, false, 4);
}

TEST(BackendParity, PopulationCallersSerial) {
  check_with_threads(kPopulationCases, true, 1);
}

TEST(BackendParity, PopulationCallersFourWorkers) {
  check_with_threads(kPopulationCases, true, 4);
}

// --- GPU-driven backend ----------------------------------------------------

/// GPU-driven backend digests (capture with UVMSIM_PARITY_PRINT=1, same
/// recapture rule as kCases).
const std::uint64_t kGpuGoldens[kNumCases] = {
    0x109e7861941ac002ULL, 0xa87bad84430c5814ULL, 0x3d8a91c0bedb1c65ULL,
    0xdcc58338ed10fc1dULL, 0x23622d08714b4605ULL, 0x16692230b71d7ac2ULL,
    0x5df76fad8ac06ff1ULL,
};

const std::uint64_t kPopulationGpuGoldens[kNumPopulationCases] = {
    0x11e53d70ddf89806ULL, 0x8a9ece21b8ed7a58ULL, 0x2d68a6adb1ec8e31ULL,
    0x0c22be0d03fc8fa7ULL, 0x66aa5f67440827caULL, 0x94171055c54870a7ULL,
    0x18d5b736a7913d39ULL,
};

TEST(BackendParity, ByteIdenticalGpuDriven) {
  check_gpu_driven(kCases, kGpuGoldens, false);
}

TEST(BackendParity, PopulationCallersGpuDriven) {
  check_gpu_driven(kPopulationCases, kPopulationGpuGoldens, true);
}

}  // namespace
}  // namespace uvmsim
