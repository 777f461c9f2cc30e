// Figure 5 reproduction: the Fig. 3 experiment rerun under the "Batch"
// replay policy (no fault-buffer flush before replay).
//
// Paper claims (§III-E):
//  * the replay-policy cost is severely diminished (no flush work);
//  * pre-processing cost is greatly increased — stale duplicates stay in
//    the buffer and must be fetched and deduplicated;
//  * random behaves similarly with roughly twice the service cost.
#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  std::vector<std::uint64_t> sizes = {64ull << 10, 512ull << 10, 4ull << 20,
                                      32ull << 20};
  if (fast_mode()) sizes.resize(2);

  auto run_policy = [&](ReplayPolicyKind policy, std::uint64_t bytes) {
    SimConfig cfg = base_config();
    cfg.driver.prefetch = PrefetchMode::Off;
    cfg.driver.replay_policy = policy;
    // The testbed GPU keeps far more faults outstanding than one batch
    // (80 SMs vs a 256-entry batch). The scaled simulator generates fewer
    // concurrent faults, so the batch size is scaled with it to stay in
    // the paper's batch << outstanding regime where the Batch-vs-Flush
    // difference lives.
    cfg.driver.batch_size = 32;
    return run_workload(cfg, "regular", bytes);
  };

  Table t({"bytes", "policy", "kernel_total", "pre_process", "replay_policy",
           "faults_fetched", "stale+dup"});
  SimDuration replay_flush = 0, replay_batch = 0;
  SimDuration pre_flush = 0, pre_batch = 0;
  SimDuration total_flush = 1, total_batch = 1;
  std::uint64_t waste_flush = 0, waste_batch = 0;

  for (std::uint64_t bytes : sizes) {
    for (ReplayPolicyKind policy :
         {ReplayPolicyKind::BatchFlush, ReplayPolicyKind::Batch}) {
      RunResult r = run_policy(policy, bytes);
      std::uint64_t waste =
          r.counters.stale_faults + r.counters.duplicate_faults;
      if (bytes == sizes.back()) {
        if (policy == ReplayPolicyKind::BatchFlush) {
          replay_flush = r.profiler.total(CostCategory::ReplayPolicy);
          pre_flush = r.profiler.total(CostCategory::PreProcess);
          total_flush = r.profiler.grand_total();
          waste_flush = waste;
        } else {
          replay_batch = r.profiler.total(CostCategory::ReplayPolicy);
          pre_batch = r.profiler.total(CostCategory::PreProcess);
          total_batch = r.profiler.grand_total();
          waste_batch = waste;
        }
      }
      t.add_row({format_bytes(bytes), to_string(policy),
                 format_duration(r.total_kernel_time()),
                 format_duration(r.profiler.total(CostCategory::PreProcess)),
                 format_duration(r.profiler.total(CostCategory::ReplayPolicy)),
                 fmt(r.counters.faults_fetched), fmt(waste)});
    }
  }
  t.print("Fig. 5 — Batch policy vs default BatchFlush (regular, prefetch off)");

  // Fig. 5 is a proportional stack chart: the replay-policy band shrinks
  // (no flush work) while pre-processing grows (stale duplicates fetched).
  double share_flush = static_cast<double>(replay_flush) /
                       static_cast<double>(total_flush);
  double share_batch = static_cast<double>(replay_batch) /
                       static_cast<double>(total_batch);
  shape_check("Batch policy: replay-policy share of driver time diminishes",
              share_batch < share_flush);
  shape_check("Batch policy: pre-processing cost increases",
              pre_batch > pre_flush);
  shape_check("Batch policy: more stale/duplicate faults reach the driver",
              waste_batch > waste_flush);
  return 0;
}
