// Ablation 5: access-counter-aware eviction vs the stock fault-driven LRU
// (paper §VI-B, "GPU memory access-aware eviction").
//
// The stock LRU only sees faults, so fully-resident hot data decays to the
// tail and gets evicted (§VI-A). With Volta access counters feeding the
// policy, resident-hot slices are promoted and survive.
//
// Workload: a hot/cold split — a small hot region re-read every iteration
// plus a large cold streaming region that forces evictions.
#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"
#include "uvm/replay_policy.h"

namespace {

// Builds the hot/cold workload directly against the Simulator API.
uvmsim::RunResult run_hot_cold(uvmsim::SimConfig cfg, std::uint32_t iters) {
  using namespace uvmsim;
  cfg.access_counters.threshold = 16;
  Simulator sim(cfg);

  std::uint64_t gpu = cfg.gpu_memory();
  RangeId hot_id = sim.malloc_managed(gpu / 8, "hot");
  RangeId cold_id = sim.malloc_managed(gpu + gpu / 4, "cold");  // 125 %
  const VaRange& hot = sim.address_space().range(hot_id);
  const VaRange& cold = sim.address_space().range(cold_id);

  std::uint64_t cold_chunk = cold.num_pages / iters;
  for (std::uint32_t it = 0; it < iters; ++it) {
    GridBuilder g("hot_cold_iter");
    // Re-read the whole hot region (every iteration).
    for (std::uint64_t p = 0; p < hot.num_pages; p += 32) {
      auto n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(32, hot.num_pages - p));
      g.new_warp().add_run(hot.first_page + p, n, false, 400);
    }
    // Stream a fresh slice of the cold region.
    std::uint64_t c0 = it * cold_chunk;
    std::uint64_t c1 = std::min(cold.num_pages, c0 + cold_chunk);
    for (std::uint64_t p = c0; p < c1; p += 32) {
      auto n = static_cast<std::uint32_t>(std::min<std::uint64_t>(32, c1 - p));
      g.new_warp().add_run(cold.first_page + p, n, true, 400);
    }
    sim.launch(g.build(static_cast<double>(hot.num_pages + cold_chunk)));
  }
  return sim.run();
}

// Faults attributed to the hot range across all kernels after the first.
std::uint64_t hot_refaults(const uvmsim::RunResult& r, uvmsim::RangeId hot) {
  std::uint64_t n = 0;
  bool past_first = false;
  std::uint64_t first_end = r.kernels.empty() ? 0 : r.kernels[0].completed_at;
  for (const auto& e : r.fault_log) {
    if (e.kind != uvmsim::FaultLogKind::Fault) continue;
    past_first = e.time > first_end;
    if (past_first && e.range == hot) ++n;
  }
  return n;
}

}  // namespace

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  const std::uint32_t iters = 6;

  Table t({"eviction_policy", "kernel_time", "faults", "evictions",
           "hot_refaults", "access_notifications"});
  SimDuration time_lru = 0, time_ac = 0;
  std::uint64_t refaults_lru = 0, refaults_ac = 0;

  for (EvictionPolicyKind policy :
       {EvictionPolicyKind::Lru, EvictionPolicyKind::AccessCounter}) {
    SimConfig cfg = base_config(/*fault_log=*/true);
    cfg.driver.eviction_policy = policy;
    RunResult r = run_hot_cold(cfg, iters);
    std::uint64_t hr = hot_refaults(r, /*hot range id=*/0);
    if (policy == EvictionPolicyKind::Lru) {
      time_lru = r.total_kernel_time();
      refaults_lru = hr;
    } else {
      time_ac = r.total_kernel_time();
      refaults_ac = hr;
    }
    t.add_row({to_string(policy), format_duration(r.total_kernel_time()),
               fmt(r.counters.faults_fetched), fmt(r.counters.evictions),
               fmt(hr), fmt(r.counters.access_notifications)});
  }
  t.print("Ablation 5 — hot/cold workload @125 % oversub, LRU vs "
          "access-counter eviction");

  shape_check("access counters keep hot data resident (fewer hot re-faults)",
              refaults_ac < refaults_lru);
  shape_check("access-counter eviction is no slower overall",
              time_ac <= time_lru + time_lru / 10);
  return 0;
}
