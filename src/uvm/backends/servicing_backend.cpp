#include "uvm/backends/servicing_backend.h"

namespace uvmsim {

const DriverConfig& ServicingBackend::config() const { return drv_.cfg_; }
const CostModel& ServicingBackend::costs() const { return drv_.cm_; }
Driver::Deps& ServicingBackend::deps() { return drv_.d_; }
DriverCounters& ServicingBackend::counters() { return drv_.counters_; }
Profiler& ServicingBackend::profiler() { return drv_.prof_; }
FaultLog& ServicingBackend::log() { return drv_.log_; }
EvictionPolicy& ServicingBackend::eviction() { return *drv_.eviction_; }
LogHistogram& ServicingBackend::queue_latency() { return drv_.queue_latency_; }

SimTime ServicingBackend::service_bin(const FaultBatch::Bin& bin,
                                      SimTime t) {
  return drv_.service_bin(bin, t);
}

SimTime ServicingBackend::issue_replay(SimTime t, std::uint64_t groups) {
  return drv_.issue_replay(t, groups);
}

SimTime ServicingBackend::flush_buffer(SimTime t) {
  return drv_.flush_buffer(t);
}

SimTime ServicingBackend::drain_access_counters(SimTime t) {
  return drv_.drain_access_counters(t);
}

ReplayPolicyKind ServicingBackend::effective_replay_policy(SimTime t) const {
  return drv_.effective_replay_policy(t);
}

bool ServicingBackend::evict_victim(SimTime& t, VaBlockId faulting_block,
                                    std::uint64_t want_bytes) {
  return drv_.evict_victim(t, faulting_block, want_bytes);
}

void ServicingBackend::trace_span(TraceCategory c, const char* name,
                                 SimTime t0, SimTime t1, std::uint64_t id,
                                 const char* a1n, std::uint64_t a1,
                                 const char* a2n, std::uint64_t a2,
                                 const char* a3n, std::uint64_t a3) {
  drv_.trace_span(c, name, t0, t1, id, a1n, a1, a2n, a2, a3n, a3);
}

void ServicingBackend::trace_instant(TraceCategory c, const char* name,
                                    SimTime t, std::uint64_t id,
                                    const char* a1n, std::uint64_t a1,
                                    const char* a2n, std::uint64_t a2) {
  drv_.trace_instant(c, name, t, id, a1n, a1, a2n, a2);
}

}  // namespace uvmsim
