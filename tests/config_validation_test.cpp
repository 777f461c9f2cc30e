// SimConfig::validate(): one row per rule, each checked through the
// Simulator constructor (the only place a SimConfig is validated), plus
// the values the Simulator derives from the config instead of reading a
// knob.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/errors.h"
#include "core/simulator.h"
#include "uvm/markov_prefetcher.h"
#include "workloads/registry.h"

namespace uvmsim {
namespace {

struct Row {
  /// The rule group the row belongs to; each group is also checked by the
  /// test named after the component that used to own the rule.
  std::string group;
  std::function<void(SimConfig&)> edit;
  /// Expected ConfigError::param(); empty = the config must be accepted.
  std::string param;
};

void markov(SimConfig& c) { c.driver.prefetch = PrefetchMode::Markov; }

const std::vector<Row>& rows() {
  static const std::vector<Row> k = {
      {"", [](SimConfig&) {}, ""},
      // GPU engine.
      {"gpu.num_sms", [](SimConfig& c) { c.gpu.num_sms = 0; }, "gpu.num_sms"},
      {"gpu.max_blocks_per_sm",
       [](SimConfig& c) { c.gpu.max_blocks_per_sm = 0; },
       "gpu.max_blocks_per_sm"},
      {"gpu.sms_per_gpc", [](SimConfig& c) { c.gpu.sms_per_gpc = 0; },
       "gpu.sms_per_gpc"},
      {"gpu.utlb_entries", [](SimConfig& c) { c.gpu.utlb_entries = 0; },
       "gpu.utlb_entries"},
      {"gpu.utlb_fault_slots", [](SimConfig& c) { c.gpu.utlb_fault_slots = 0; },
       "gpu.utlb_fault_slots"},
      // The fault granularity is also the driver's base page: it must
      // divide a 512-page VA block.
      {"granularity", [](SimConfig& c) { c.gpu.fault_granularity_pages = 0; },
       "gpu.fault_granularity_pages"},
      {"granularity", [](SimConfig& c) { c.gpu.fault_granularity_pages = 3; },
       "gpu.fault_granularity_pages"},
      {"granularity", [](SimConfig& c) { c.set_host_page_size(64 << 10); }, ""},
      // Fault buffer and interconnect: a zero-entry buffer used to deadlock
      // and a zero bandwidth to schedule into the past.
      {"", [](SimConfig& c) { c.fault_buffer.capacity = 0; },
       "fault_buffer.capacity"},
      {"", [](SimConfig& c) { c.interconnect.bandwidth_Bps = 0.0; },
       "interconnect.bandwidth_Bps"},
      // PMA.
      {"pma", [](SimConfig& c) { c.pma.chunk_bytes = 0; }, "pma.chunk_bytes"},
      {"pma", [](SimConfig& c) { c.pma.chunk_bytes = 2048; },
       "pma.chunk_bytes"},
      {"pma", [](SimConfig& c) { c.pma.capacity_bytes = 1024; },
       "pma.capacity_bytes"},
      {"pma", [](SimConfig& c) { c.pma.slab_chunks = 0; }, "pma.slab_chunks"},
      // Driver.
      {"driver", [](SimConfig& c) { c.driver.batch_size = 0; },
       "driver.batch_size"},
      {"driver", [](SimConfig& c) { c.driver.chunking.fine_watermark = -0.1; },
       "driver.chunking.fine_watermark"},
      {"driver",
       [](SimConfig& c) {
         c.driver.chunking.split_watermark = 0.1;
         c.driver.chunking.fine_watermark = 0.5;
       },
       "driver.chunking.split_watermark"},
      // Threshold 101 is the library-only "upgrade only" mode.
      {"", [](SimConfig& c) { c.driver.prefetch_threshold = 101; }, ""},
      // Markov knobs are checked only under PrefetchMode::Markov.
      {"markov.table", [](SimConfig& c) { c.driver.markov.table_entries = 0; },
       ""},
      {"markov.table",
       [](SimConfig& c) {
         markov(c);
         c.driver.markov.table_entries = 0;
       },
       "driver.markov.table_entries"},
      {"markov.table",
       [](SimConfig& c) {
         markov(c);
         c.driver.markov.table_entries = 1;
       },
       "driver.markov.table_entries"},
      {"markov.table",
       [](SimConfig& c) {
         markov(c);
         c.driver.markov.table_entries = 48;
       },
       "driver.markov.table_entries"},
      {"markov.table",
       [](SimConfig& c) {
         markov(c);
         c.driver.markov.table_entries = 1u << 21;
       },
       "driver.markov.table_entries"},
      {"markov.table",
       [](SimConfig& c) {
         markov(c);
         c.driver.markov.table_entries = 1u << 20;
       },
       ""},
      {"markov.degree",
       [](SimConfig& c) {
         markov(c);
         c.driver.markov.degree = 0;
       },
       "driver.markov.degree"},
      {"markov.degree",
       [](SimConfig& c) {
         markov(c);
         c.driver.markov.degree = MarkovPrefetcher::kMaxDegree + 1;
       },
       "driver.markov.degree"},
      {"markov.degree",
       [](SimConfig& c) {
         markov(c);
         c.driver.markov.confidence_emit = 0;
       },
       "driver.markov.confidence_emit"},
      {"markov.degree",
       [](SimConfig& c) {
         markov(c);
         c.driver.markov.confidence_emit = c.driver.markov.confidence_max + 1;
       },
       "driver.markov.confidence_emit"},
      // Hazard knobs are checked only when a rate is set; a negative rate
      // counts as set.
      {"hazards", [](SimConfig& c) { c.hazards.window_end = 1; }, ""},
      {"hazards", [](SimConfig& c) { c.hazards.dma_fail_rate = 1.0; },
       "hazards.dma_fail_rate"},
      {"hazards", [](SimConfig& c) { c.hazards.dma_fail_rate = -0.1; },
       "hazards.dma_fail_rate"},
      {"hazards", [](SimConfig& c) { c.hazards.fb_corrupt_rate = 2.0; },
       "hazards.fb_corrupt_rate"},
      {"hazards", [](SimConfig& c) { c.hazards.pma_fail_rate = -0.2; },
       "hazards.pma_fail_rate"},
      {"hazards", [](SimConfig& c) { c.hazards.ac_drop_rate = 1.0; },
       "hazards.ac_drop_rate"},
      {"hazards",
       [](SimConfig& c) {
         c.hazards.dma_fail_rate = 0.5;
         c.hazards.window_start = 200;
         c.hazards.window_end = 100;
       },
       "hazards.window_end"},
  };
  return k;
}

void check(const Row& row, std::size_t i) {
  SCOPED_TRACE("row " + std::to_string(i) + " (" + row.param + ")");
  SimConfig cfg;
  row.edit(cfg);
  if (row.param.empty()) {
    EXPECT_NO_THROW(Simulator{cfg});
    return;
  }
  try {
    Simulator sim(cfg);
    ADD_FAILURE() << "accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.param(), row.param) << e.what();
  }
}

/// Checks the rows of one rule group.
void check_group(const std::string& group) {
  std::size_t checked = 0;
  for (std::size_t i = 0; i < rows().size(); ++i) {
    if (rows()[i].group != group) continue;
    check(rows()[i], i);
    ++checked;
  }
  EXPECT_GT(checked, 0u) << "no rows in group " << group;
}

TEST(ConfigValidation, EachRuleThrowsItsFieldPath) {
  for (std::size_t i = 0; i < rows().size(); ++i) check(rows()[i], i);
}

// The rule groups under the names of the component tests that checked them
// before SimConfig::validate() took the rules over.
TEST(GpuEngineConfig, ZeroNumSmsRejected) { check_group("gpu.num_sms"); }
TEST(GpuEngineConfig, ZeroMaxBlocksPerSmRejected) {
  check_group("gpu.max_blocks_per_sm");
}
TEST(GpuEngineConfig, ZeroSmsPerGpcRejected) {
  check_group("gpu.sms_per_gpc");
}
TEST(GpuEngineConfig, ZeroUtlbEntriesRejected) {
  check_group("gpu.utlb_entries");
}
TEST(GpuEngineConfig, ZeroUtlbFaultSlotsRejected) {
  check_group("gpu.utlb_fault_slots");
}
TEST(GpuEngineConfig, BadFaultGranularityRejected) {
  check_group("granularity");
}
TEST(HostPageSize, InvalidBasePageThrows) { check_group("granularity"); }
TEST(Pma, InvalidConfigThrows) { check_group("pma"); }
TEST(DriverTest, BadConfigsThrow) { check_group("driver"); }
TEST(MarkovConfig, RejectsBadTableSizes) { check_group("markov.table"); }
TEST(MarkovConfig, RejectsBadDegreeAndThresholds) {
  check_group("markov.degree");
}
TEST(HazardInjector, RejectsInvalidConfig) { check_group("hazards"); }

RunResult run_sgemm(EvictionPolicyKind policy) {
  SimConfig cfg;
  cfg.set_gpu_memory(16ull << 20);
  cfg.enable_fault_log = false;
  cfg.driver.eviction_policy = policy;
  Simulator sim(cfg);
  make_workload("sgemm", 24ull << 20)->setup(sim);
  return sim.run();
}

TEST(DerivedConfig, AccessCounterEvictionTurnsTheCountersOn) {
  // Choosing the policy is enough: the Simulator enables the counters the
  // policy learns from, so the run differs from plain LRU.
  const RunResult ac = run_sgemm(EvictionPolicyKind::AccessCounter);
  const RunResult lru = run_sgemm(EvictionPolicyKind::Lru);
  EXPECT_GT(ac.counters.access_notifications, 0u);
  EXPECT_NE(ac.end_time, lru.end_time);
}

}  // namespace
}  // namespace uvmsim
