// Ablation 3: the four replay policies compared (paper §III-E).
//
// Paper characterization:
//  * Block  — earliest, most frequent replays; SMs resume sooner at the
//    cost of more replays;
//  * Batch  — fewer replays, larger fault-resolution latency, duplicates
//    accumulate in the buffer;
//  * BatchFlush (default) — Batch + buffer flush to suppress duplicates at
//    the cost of remote queue management;
//  * Once   — simplest, longest latency.
#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  const std::uint64_t target = static_cast<std::uint64_t>(
      0.4 * static_cast<double>(gpu_bytes()));

  for (const std::string wl : {"regular", "random"}) {
    Table t({"policy", "kernel_time", "replays", "flushes", "stall_ms",
             "mean_stall_us", "dup+stale", "replay_cost", "preprocess_cost"});
    std::uint64_t replays_block = 0, replays_once = 0;
    std::uint64_t dup_batch = 0, dup_flush = 0;
    double mean_stall_block = 0, mean_stall_once = 0;

    for (ReplayPolicyKind policy :
         {ReplayPolicyKind::Block, ReplayPolicyKind::Batch,
          ReplayPolicyKind::BatchFlush, ReplayPolicyKind::Once}) {
      SimConfig cfg = base_config();
      cfg.driver.replay_policy = policy;
      cfg.driver.prefetch = PrefetchMode::Off;
      // Stay in the paper's batch << outstanding-faults regime (see
      // fig05): with the whole buffer fitting in one batch, Batch and Once
      // degenerate to the same schedule.
      cfg.driver.batch_size = 32;
      RunResult r = run_workload(cfg, wl, target);
      std::uint64_t stall = 0, episodes = 0;
      for (const auto& k : r.kernels) {
        stall += k.stall_ns;
        episodes += k.stall_episodes;
      }
      double mean_stall =
          episodes ? static_cast<double>(stall) / static_cast<double>(episodes)
                   : 0.0;
      std::uint64_t dup =
          r.counters.duplicate_faults + r.counters.stale_faults;

      if (policy == ReplayPolicyKind::Block) {
        replays_block = r.counters.replays_issued;
        mean_stall_block = mean_stall;
      }
      if (policy == ReplayPolicyKind::Once) {
        replays_once = r.counters.replays_issued;
        mean_stall_once = mean_stall;
      }
      if (policy == ReplayPolicyKind::Batch) dup_batch = dup;
      if (policy == ReplayPolicyKind::BatchFlush) dup_flush = dup;

      t.add_row({to_string(policy), format_duration(r.total_kernel_time()),
                 fmt(r.counters.replays_issued),
                 fmt(r.counters.buffer_flushes), fmt(to_ms(stall), 4),
                 fmt(mean_stall / 1e3, 4), fmt(dup),
                 format_duration(r.profiler.total(CostCategory::ReplayPolicy)),
                 format_duration(r.profiler.total(CostCategory::PreProcess))});
    }
    t.print("Ablation 3 — " + wl + " replay policies (prefetch off)");

    shape_check("(" + wl + ") Block issues the most replays",
                replays_block > replays_once);
    shape_check("(" + wl + ") Once has the longest fault-resolution latency "
                "(mean stall per episode)",
                mean_stall_once > mean_stall_block);
    shape_check("(" + wl + ") flushing suppresses duplicate/stale faults",
                dup_flush <= dup_batch);
  }
  return 0;
}
