// Randomized property testing: generate random managed-memory workloads
// under random driver configurations and assert the system-wide invariants
// that must hold for ANY input. Each seed is deterministic, so a failure
// reproduces from its test name.
#include <gtest/gtest.h>

#include <optional>

#include "core/simulator.h"
#include "sim/rng.h"
#include "workloads/workload.h"

namespace uvmsim {
namespace {

struct FuzzCase {
  SimConfig cfg;
  std::uint64_t total_bytes = 0;
};

/// Draws a random-but-valid configuration.
FuzzCase make_config(Rng& rng) {
  FuzzCase fc;
  SimConfig& cfg = fc.cfg;
  // GPU memory: 8..64 MiB.
  cfg.set_gpu_memory((8ull + rng.next_below(57)) << 20);
  cfg.seed = rng.next_u64();
  cfg.enable_fault_log = rng.next_below(2) == 0;

  cfg.driver.batch_size = static_cast<std::uint32_t>(1 + rng.next_below(512));
  // Two separate draws pick the prefetch mode, in this order, so every seed
  // keeps building the run it always has.
  const bool prefetch_on = rng.next_below(4) != 0;
  cfg.driver.prefetch_threshold =
      static_cast<std::uint32_t>(1 + rng.next_below(100));
  cfg.driver.big_page_upgrade = rng.next_below(2) == 0;
  const bool adaptive = rng.next_below(4) == 0;
  cfg.driver.prefetch = !prefetch_on ? PrefetchMode::Off
                        : adaptive   ? PrefetchMode::Adaptive
                                     : PrefetchMode::Tree;
  cfg.driver.replay_policy = static_cast<ReplayPolicyKind>(rng.next_below(4));
  cfg.driver.fetch_policy = rng.next_below(2) == 0
                                ? FetchPolicy::PollReady
                                : FetchPolicy::StopAtNotReady;
  cfg.driver.eviction_policy =
      static_cast<EvictionPolicyKind>(rng.next_below(4));
  cfg.driver.access_counter_migration = rng.next_below(4) == 0;
  cfg.driver.pipelined_migrations = rng.next_below(3) == 0;

  cfg.driver.chunking.enabled = rng.next_below(4) != 0;
  static constexpr double kSplits[] = {0.0, 1.0 / 16, 1.0 / 4, 2.0};
  cfg.driver.chunking.split_watermark = kSplits[rng.next_below(4)];
  cfg.driver.chunking.fine_watermark =
      cfg.driver.chunking.split_watermark *
      (rng.next_below(2) == 0 ? 1.0 : 0.25);
  (void)rng.next_below(2);  // unused draw: keeps each seed's config stream
  cfg.pma.slab_chunks = static_cast<std::uint32_t>(1 + rng.next_below(32));

  cfg.fault_buffer.capacity =
      static_cast<std::uint32_t>(16 + rng.next_below(4096));
  cfg.gpu.num_sms = static_cast<std::uint32_t>(1 + rng.next_below(16));
  cfg.gpu.max_blocks_per_sm = static_cast<std::uint32_t>(1 + rng.next_below(4));
  cfg.gpu.utlb_fault_slots = static_cast<std::uint32_t>(1 + rng.next_below(32));
  if (rng.next_below(4) == 0) {
    cfg.set_host_page_size(64 << 10);  // occasional Power9 mode
  }
  if (rng.next_below(4) == 0) {
    cfg.driver.thrashing.enabled = true;
    cfg.driver.thrashing.mitigation =
        static_cast<ThrashMitigation>(rng.next_below(3));
  }
  // Half the cases run under hazard injection; every invariant below must
  // survive injected DMA failures, fault-buffer corruption, transient
  // allocation failures, and lost notifications. DeterministicReplay then
  // doubles as the hazard-reproducibility check.
  if (rng.next_below(2) == 0) {
    cfg.hazards.dma_fail_rate = 0.3 * rng.next_double();
    cfg.hazards.fb_corrupt_rate = 0.3 * rng.next_double();
    cfg.hazards.pma_fail_rate = 0.3 * rng.next_double();
    cfg.hazards.ac_drop_rate = 0.3 * rng.next_double();
  }
  return fc;
}

/// Builds a random workload on `sim`: 1-4 ranges, 1-3 kernels of random
/// warps mixing contiguous runs, scattered sets, and cross-range accesses.
/// Total footprint can under- or oversubscribe the GPU (bounded at ~160 %).
std::uint64_t build_random_workload(Simulator& sim, Rng& rng) {
  std::uint64_t gpu = sim.config().gpu_memory();
  std::size_t num_ranges = 1 + rng.next_below(4);
  std::uint64_t budget = gpu / 2 + rng.next_below(gpu + gpu / 8);
  std::uint64_t total = 0;

  struct R {
    VirtPage first;
    std::uint64_t pages;
    RangeId id;
  };
  std::vector<R> ranges;
  for (std::size_t i = 0; i < num_ranges; ++i) {
    std::uint64_t bytes = std::max<std::uint64_t>(
        budget / num_ranges / 2 + rng.next_below(budget / num_ranges + 1),
        kPageSize);
    bool populated = rng.next_below(4) != 0;
    RangeId id =
        sim.malloc_managed(bytes, "fuzz" + std::to_string(i), populated);
    const VaRange& vr = sim.address_space().range(id);
    ranges.push_back(R{vr.first_page, vr.num_pages, id});
    total += bytes;
    if (rng.next_below(6) == 0) {
      MemAdvise a;
      switch (rng.next_below(3)) {
        case 0: a.read_mostly = true; break;
        case 1: a.remote_map = true; break;
        default: a.preferred_location_gpu = true; break;
      }
      sim.mem_advise(id, a);
    }
  }

  std::size_t num_kernels = 1 + rng.next_below(3);
  for (std::size_t k = 0; k < num_kernels; ++k) {
    GridBuilder g("fuzz_kernel" + std::to_string(k));
    std::size_t warps = 4 + rng.next_below(64);
    std::vector<LanePage> pages;
    for (std::size_t w = 0; w < warps; ++w) {
      AccessStream& s = g.new_warp();
      std::size_t records = 1 + rng.next_below(6);
      for (std::size_t rec = 0; rec < records; ++rec) {
        const R& r = ranges[rng.next_below(ranges.size())];
        bool write = rng.next_below(2) == 0;
        auto compute = static_cast<std::uint32_t>(rng.next_below(2000));
        if (rng.next_below(2) == 0) {
          // Contiguous run.
          std::uint64_t len = 1 + rng.next_below(32);
          len = std::min(len, r.pages);
          std::uint64_t start = rng.next_below(r.pages - len + 1);
          s.add_run(r.first + start, static_cast<std::uint32_t>(len), write,
                    compute);
        } else {
          // Scattered set.
          pages.clear();
          std::uint64_t n = 1 + rng.next_below(16);
          for (std::uint64_t i = 0; i < n; ++i) {
            pages.push_back(lane_page(r.first + rng.next_below(r.pages)));
          }
          s.add(pages, write, compute);
        }
      }
    }
    sim.launch(g.build(1.0), static_cast<std::uint32_t>(rng.next_below(2)));
  }
  return total;
}

/// Asserts every invariant that holds for ANY input on either servicing
/// backend.
void check_invariants(const FuzzCase& fc, Simulator& sim,
                      const RunResult& r) {
  // Residency within physical capacity (remote mappings use none).
  EXPECT_LE(r.resident_pages_at_end * kPageSize, fc.cfg.gpu_memory());

  // PMA accounting consistent with block backing: every chunk-tree byte is
  // a PMA byte and vice versa, at any chunk granularity mix.
  std::uint64_t backed_bytes = 0;
  for (std::size_t b = 0; b < sim.address_space().num_blocks(); ++b) {
    backed_bytes += sim.address_space().block(b).backing.backed_bytes();
  }
  EXPECT_EQ(backed_bytes, sim.pma().bytes_in_use());

  // The eviction policy tracks exactly the blocks holding backing: one
  // missed allocate or evict notification strands a block or its memory.
  std::size_t backed_blocks = 0;
  for (std::size_t b = 0; b < sim.address_space().num_blocks(); ++b) {
    if (sim.address_space().block(b).backing.any()) ++backed_blocks;
  }
  EXPECT_EQ(sim.driver().eviction_policy().tracked(), backed_blocks);

  // Fault conservation.
  EXPECT_EQ(r.counters.faults_fetched,
            r.counters.faults_serviced + r.counters.duplicate_faults +
                r.counters.stale_faults);

  // Interconnect byte accounting. H2D: bulk migrations go through
  // Interconnect::reserve; the GPU-driven backend's page fetches are RDMA
  // reads, which share reserve_pipelined (zero-copy bytes) with the lanes'
  // zero-copy accesses to remote-mapped pages. The driver backend fetches
  // no pages that way. D2H = eviction writeback + CPU-fault migrations.
  const std::uint64_t rdma_pages = r.counters.gpu_page_fetches;
  if (fc.cfg.driver.backend == ServicingBackendKind::DriverCentric) {
    EXPECT_EQ(rdma_pages, 0u);
  }
  EXPECT_EQ(r.bytes_h2d,
            (r.counters.pages_migrated_h2d - rdma_pages) * kPageSize);
  EXPECT_EQ(r.bytes_zero_copy,
            rdma_pages * kPageSize +
                sim.gpu().remote_accesses() *
                    std::uint64_t{fc.cfg.gpu.remote_access_bytes});
  EXPECT_EQ(r.bytes_d2h,
            (r.counters.pages_evicted + r.counters.cpu_faults_serviced) *
                kPageSize);

  // Every page is in a consistent location state: a GPU-resident page
  // with a valid host copy must be a read-duplicate.
  for (std::size_t b = 0; b < sim.address_space().num_blocks(); ++b) {
    const VaBlock& blk = sim.address_space().block(b);
    PageMask both = blk.gpu_resident & blk.cpu_resident;
    EXPECT_TRUE(both.and_not(blk.read_duplicated).none())
        << "block " << b << " has dual-resident non-duplicated pages";
    // Remote-mapped pages hold no GPU residency.
    EXPECT_TRUE((blk.remote_mapped & blk.gpu_resident).none());
  }

  // Latency sample counts line up with counters.
  EXPECT_EQ(r.fault_queue_latency.count(), r.counters.faults_fetched);
}

/// Runs one seed's case, checking the invariants if `check`. `backend`
/// overrides the drawn configuration's servicing backend after every draw,
/// so the seed's stream is unchanged.
RunResult run_seed(std::uint64_t seed,
                   std::optional<ServicingBackendKind> backend, bool check) {
  Rng rng(seed);
  FuzzCase fc = make_config(rng);
  if (backend) fc.cfg.driver.backend = *backend;
  Simulator sim(fc.cfg);
  build_random_workload(sim, rng);
  RunResult r = sim.run();  // throws on deadlock -> test failure
  if (check) check_invariants(fc, sim, r);
  return r;
}

void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.counters.faults_fetched, b.counters.faults_fetched);
  EXPECT_EQ(a.counters.evictions, b.counters.evictions);
  EXPECT_EQ(a.bytes_h2d, b.bytes_h2d);
}

class FuzzInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzInvariants, SystemInvariantsHold) {
  run_seed(GetParam(), std::nullopt, true);
}

TEST_P(FuzzInvariants, DeterministicReplay) {
  expect_same_run(run_seed(GetParam(), std::nullopt, false),
                  run_seed(GetParam(), std::nullopt, false));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzInvariants,
                         ::testing::Range<std::uint64_t>(1, 25));

/// The same draws on the GPU-driven backend (per-fault resolution, 4 KB
/// pool eviction, RDMA page fetches), from seeds of its own.
class FuzzInvariantsGpuDriven
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzInvariantsGpuDriven, SystemInvariantsHold) {
  const RunResult r =
      run_seed(GetParam(), ServicingBackendKind::GpuDriven, true);
  // This backend never batches: nothing is prefetched.
  EXPECT_EQ(r.counters.pages_prefetched, 0u);
}

TEST_P(FuzzInvariantsGpuDriven, DeterministicReplay) {
  expect_same_run(run_seed(GetParam(), ServicingBackendKind::GpuDriven, false),
                  run_seed(GetParam(), ServicingBackendKind::GpuDriven, false));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzInvariantsGpuDriven,
                         ::testing::Range<std::uint64_t>(101, 125));

}  // namespace
}  // namespace uvmsim
