// Equivalence laws: settings that must not change a run's output.
//
// Without oversubscription (48 MiB on a 128 MiB GPU) no policy ever picks
// a victim, so the eviction policy must leave the run summary and the
// complete fault log byte-identical, on both backends. The law holds for
// lru, clock and 2q everywhere. access_counter joins it only where the
// access counters it switches on stay quiet: on sgemm they notify, and
// pre-processing the notifications adds driver time.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/fault_log.h"
#include "core/report.h"
#include "core/simulator.h"
#include "workloads/registry.h"

namespace uvmsim {
namespace {

struct LawCase {
  const char* workload;
  ServicingBackendKind backend;
  bool access_counter_joins;  ///< access_counter obeys the law too
};

void PrintTo(const LawCase& c, std::ostream* os) {
  *os << c.workload << "/" << to_string(c.backend);
}

/// What a user of the run can observe: the summary CSV, the fault log and
/// the eviction count (the law's premise).
struct Observed {
  std::string summary;
  std::string log;
  std::uint64_t evictions = 0;
};

Observed run(const LawCase& c, EvictionPolicyKind policy) {
  SimConfig cfg;
  cfg.set_gpu_memory(128ull << 20);
  cfg.enable_fault_log = true;
  cfg.driver.backend = c.backend;
  cfg.driver.eviction_policy = policy;
  Simulator sim(cfg);
  make_workload(c.workload, 48ull << 20)->setup(sim);
  const RunResult r = sim.run();
  Observed o;
  o.summary = run_summary_table(r).to_csv();
  for (const FaultLogEntry& e : sim.driver().fault_log().entries()) {
    o.log += std::to_string(e.order) + ' ' + std::to_string(e.time) + ' ' +
             std::to_string(static_cast<int>(e.kind)) + ' ' +
             std::to_string(e.page) + ' ' + std::to_string(e.block) + ' ' +
             std::to_string(e.range) + ' ' + (e.duplicate ? "d\n" : "-\n");
  }
  o.evictions = r.counters.evictions;
  return o;
}

class NoOversubscription : public ::testing::TestWithParam<LawCase> {};

TEST_P(NoOversubscription, EvictionPolicyDoesNotMatter) {
  const LawCase& c = GetParam();
  const Observed lru = run(c, EvictionPolicyKind::Lru);
  ASSERT_EQ(lru.evictions, 0u) << "the law needs a run without eviction";
  ASSERT_FALSE(lru.log.empty());
  std::vector<EvictionPolicyKind> others = {EvictionPolicyKind::Clock,
                                            EvictionPolicyKind::TwoQ};
  if (c.access_counter_joins) {
    others.push_back(EvictionPolicyKind::AccessCounter);
  }
  for (EvictionPolicyKind p : others) {
    const Observed o = run(c, p);
    EXPECT_EQ(lru.summary, o.summary) << to_string(p);
    EXPECT_TRUE(lru.log == o.log) << to_string(p) << ": fault log differs";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, NoOversubscription,
    ::testing::Values(
        LawCase{"random", ServicingBackendKind::DriverCentric, true},
        LawCase{"random", ServicingBackendKind::GpuDriven, true},
        LawCase{"sgemm", ServicingBackendKind::DriverCentric, false},
        LawCase{"sgemm", ServicingBackendKind::GpuDriven, false},
        LawCase{"regular", ServicingBackendKind::DriverCentric, true},
        LawCase{"regular", ServicingBackendKind::GpuDriven, true}),
    [](const auto& pinfo) {
      return std::string(pinfo.param.workload) + "_" +
             (pinfo.param.backend == ServicingBackendKind::GpuDriven ? "gpu"
                                                                    : "driver");
    });

}  // namespace
}  // namespace uvmsim
