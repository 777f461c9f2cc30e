#include "uvm/backends/driver_centric.h"

#include "uvm/fault_batch.h"

namespace uvmsim {

SimTime DriverCentricBackend::service_pass() {
  DriverCounters& ctr = counters();
  const CostModel& cm = costs();
  Driver::Deps& d = deps();

  SimTime t = d.eq->now() + cm.pass_overhead;
  if (ctr.passes == 1 && cm.driver_cold_start > 0) {
    // First-fault path: channels, VA-space structures, cold caches.
    t += cm.driver_cold_start;
    profiler().add(CostCategory::ServiceOther, cm.driver_cold_start);
  }

  // Access-counter notifications (extension path; zero cost when disabled).
  t = drain_access_counters(t);

  // --- pre-processing ---
  const std::uint64_t pass_id = ctr.passes;
  SimTime t0 = t;
  FaultBatch batch =
      Preprocessor::fetch(*d.fb, config().batch_size, cm, t,
                          config().fetch_policy, &queue_latency(), d.tracer);
  ctr.faults_fetched += batch.fetched;
  ctr.duplicate_faults += batch.duplicates;
  ctr.polls += batch.polls;
  ctr.queue_latency_clamped += batch.latency_clamps;
  profiler().add(CostCategory::PreProcess, t - t0);
  trace_span(TraceCategory::Fetch, "driver.fetch", t0, t, pass_id, "fetched",
             batch.fetched, "dups", batch.duplicates, "bins",
             batch.bins.size());

  if (!batch.empty()) {
    ++ctr.batches;
    // --- service, one VABlock bin at a time (the ordering authority) ---
    for (const auto& bin : batch.bins) {
      SimTime tb = t;
      t = service_bin(bin, t);
      trace_span(TraceCategory::Service, "service.bin", tb, t, bin.block,
                 "entries", bin.fault_entries, "pages", bin.faulted.count(),
                 "pass", pass_id);
      if (effective_replay_policy(t) == ReplayPolicyKind::Block) {
        t = issue_replay(t);
      }
    }
    // --- end-of-batch replay policy ---
    switch (effective_replay_policy(t)) {
      case ReplayPolicyKind::Block:
        break;  // replays already issued per block
      case ReplayPolicyKind::Batch:
        t = issue_replay(t, batch.bins.size());
        break;
      case ReplayPolicyKind::BatchFlush:
        t = flush_buffer(t);
        t = issue_replay(t, batch.bins.size());
        break;
      case ReplayPolicyKind::Once:
        break;  // handled by the driver shell at pass end
    }
  }
  return t;
}

}  // namespace uvmsim
