// End-to-end tests of the uvmsim_cli binary (path injected by CMake as
// UVMSIM_CLI_PATH): argument handling, report output, trace round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "fnv.h"

namespace {

struct CmdResult {
  int exit_code = -1;
  std::string output;
};

/// Runs the CLI with `args` through the shell, after the shell commands in
/// `prelude` (e.g. a ulimit), capturing stdout and stderr.
CmdResult run_cli(const std::string& args, const std::string& prelude = "") {
  std::string cmd =
      "(" + prelude + std::string(UVMSIM_CLI_PATH) + " " + args + ") 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  CmdResult res;
  if (pipe == nullptr) return res;
  char buf[4096];
  while (fgets(buf, sizeof buf, pipe) != nullptr) res.output += buf;
  int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

/// FNV-1a 64 of `bytes`.
std::uint64_t fnv1a(const std::string& bytes) {
  return uvmsim::fnv1a64(uvmsim::kFnvOffset, bytes.data(), bytes.size());
}

TEST(Cli, HelpExitsCleanly) {
  CmdResult r = run_cli("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--workload"), std::string::npos);
  EXPECT_NE(r.output.find("--replay-trace"), std::string::npos);
}

TEST(Cli, UnknownOptionFails) {
  CmdResult r = run_cli("--frobnicate");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("unknown option"), std::string::npos);
}

TEST(Cli, MissingValueFails) {
  CmdResult r = run_cli("--workload");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("missing value"), std::string::npos);
}

TEST(Cli, BadWorkloadFails) {
  CmdResult r = run_cli("--workload nope --size-mib 4");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("unknown workload"), std::string::npos);
}

TEST(Cli, BadEnumValuesFail) {
  // Bad knob values are config errors (exit 2), as in a campaign request.
  EXPECT_EQ(run_cli("--prefetch sideways").exit_code, 2);
  EXPECT_EQ(run_cli("--prefetch-policy oracle").exit_code, 2);
  EXPECT_EQ(run_cli("--policy yolo").exit_code, 2);
  EXPECT_EQ(run_cli("--eviction fifo").exit_code, 2);
  EXPECT_EQ(run_cli("--eviction-policy fifo").exit_code, 2);
  EXPECT_EQ(run_cli("--thrash maybe").exit_code, 2);
  EXPECT_EQ(run_cli("--backend fpga").exit_code, 2);
  // Unsigned knobs take no sign, no junk, and must fit their field.
  for (const std::string bad : {"-1", "-5", "4294967297", "abc"}) {
    EXPECT_EQ(run_cli("--batch-size " + bad).exit_code, 2) << bad;
    EXPECT_EQ(run_cli("--threshold " + bad).exit_code, 2) << bad;
  }
  EXPECT_EQ(run_cli("--seed -1").exit_code, 2);
}

TEST(Cli, ThresholdOutOfRangeRejected) {
  // --help documents 1..100. Only DriverConfig takes 101 (big-page upgrade
  // with the density stage off); a request must not reach it.
  const std::string run = "--workload regular --size-mib 4 --gpu-mib 16 ";
  for (const std::string bad : {"0", "101", "4294967295"}) {
    CmdResult r = run_cli(run + "--threshold " + bad);
    EXPECT_EQ(r.exit_code, 2) << bad << "\n" << r.output;
    EXPECT_NE(r.output.find("threshold"), std::string::npos) << r.output;
  }
  for (const std::string good : {"1", "100"}) {
    EXPECT_EQ(run_cli(run + "--threshold " + good).exit_code, 0) << good;
  }
}

TEST(Cli, PolicyPanelRunsAndReportsMarkovCounters) {
  CmdResult r = run_cli(
      "--workload strided --size-mib 8 --gpu-mib 4 "
      "--prefetch-policy markov --eviction clock");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("markov_observes"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("markov_blocks_prefetched"), std::string::npos);
  // The 2Q panel member and the --eviction-policy alias both run.
  EXPECT_EQ(run_cli("--workload regular --size-mib 4 --gpu-mib 16 "
                    "--eviction-policy 2q")
                .exit_code,
            0);
}

TEST(Cli, MarkovRejectsAdaptivePrefetchCombination) {
  CmdResult r = run_cli(
      "--workload regular --size-mib 4 --prefetch adaptive "
      "--prefetch-policy markov");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("markov cannot combine"), std::string::npos);
}

TEST(Cli, FullScalePresetOutputIsPinned) {
  // The --full-scale Titan V preset (80 SMs), shrunk to a 128 MiB working
  // set on a 96 MiB GPU so it runs in milliseconds. The digest is an FNV-1a
  // 64 over the whole report; it changes only when simulated output does.
  CmdResult r =
      run_cli("--full-scale --gpu-mib 96 --size-mib 128 --csv");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(fnv1a(r.output), 0x34990c3898b3f390ULL) << r.output;
}

TEST(Cli, GpuBackendRuns) {
  CmdResult r =
      run_cli("--workload regular --size-mib 4 --gpu-mib 16 --backend gpu");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("kernel"), std::string::npos) << r.output;
}

TEST(Cli, BasicRunPrintsReport) {
  CmdResult r = run_cli("--workload regular --size-mib 4 --gpu-mib 16");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("kernel_time"), std::string::npos);
  EXPECT_NE(r.output.find("faults_serviced"), std::string::npos);
  EXPECT_NE(r.output.find("migrate_pages"), std::string::npos);
  EXPECT_NE(r.output.find("warp_stall"), std::string::npos);
}

TEST(Cli, CsvModeEmitsCsv) {
  CmdResult r = run_cli("--workload regular --size-mib 4 --csv");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("csv,metric,value"), std::string::npos);
}

TEST(Cli, PatternModePrintsScatterAndTimeline) {
  CmdResult r = run_cli("--workload stream --size-mib 6 --pattern");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("access pattern"), std::string::npos);
  EXPECT_NE(r.output.find("activity over time"), std::string::npos);
}

TEST(Cli, BaselineComparison) {
  CmdResult r = run_cli("--workload regular --size-mib 4 --baseline");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("explicit-transfer baseline"), std::string::npos);
}

TEST(Cli, TraceDumpAndReplayRoundTrip) {
  // stream stores its grid; sgemm generates each block at dispatch.
  for (const char* workload : {"stream", "sgemm"}) {
    SCOPED_TRACE(workload);
    std::string trace = std::string(::testing::TempDir()) + "/cli_test.trace";
    CmdResult dump = run_cli(std::string("--workload ") + workload +
                             " --size-mib 6 --dump-trace " + trace);
    ASSERT_EQ(dump.exit_code, 0) << dump.output;
    std::ifstream f(trace);
    ASSERT_TRUE(f.good());
    std::string header;
    std::getline(f, header);
    EXPECT_EQ(header, "uvmsim-trace v1");

    CmdResult replay = run_cli("--replay-trace " + trace);
    EXPECT_EQ(replay.exit_code, 0) << replay.output;
    EXPECT_NE(replay.output.find("faults_serviced"), std::string::npos);
    std::remove(trace.c_str());
  }
}

TEST(Cli, DumpTraceDigestsArePinned) {
  // Capture reads every lane of every record, so these digests pin the
  // workloads' explicit page lists (random, bfs, stream and cufft build
  // theirs with add()) and the lanes of their strided records (sgemm,
  // strided, regular and tealeaf) independently of how streams store them.
  const struct {
    const char* workload;
    std::uint64_t digest;
  } cases[] = {{"random", 0x5eed27bba97cac07ULL},
               {"bfs", 0x511b4b3b940274a0ULL},
               {"stream", 0x8dd6332faafb387aULL},
               {"cufft", 0xa71b04fcdffb27e4ULL},
               {"sgemm", 0x9d7a3545bc08f084ULL},
               {"strided", 0x4a84d297360e814bULL},
               {"regular", 0xd61b66ae238efb84ULL},
               {"tealeaf", 0xb651b7bb4fac342cULL}};
  const std::string trace =
      std::string(::testing::TempDir()) + "/cli_test_digest.trace";
  for (const auto& c : cases) {
    SCOPED_TRACE(c.workload);
    CmdResult dump = run_cli(std::string("--workload ") + c.workload +
                             " --size-mib 6 --dump-trace " + trace);
    ASSERT_EQ(dump.exit_code, 0) << dump.output;
    std::ifstream f(trace, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(f),
                            std::istreambuf_iterator<char>()};
    EXPECT_EQ(fnv1a(bytes), c.digest);
    std::remove(trace.c_str());
  }
}

TEST(Cli, DriverTraceOutWritesChromeJson) {
  std::string trace = std::string(::testing::TempDir()) + "/driver.trace.json";
  CmdResult r = run_cli(
      "--workload random --size-mib 24 --gpu-mib 16 --trace-out " + trace);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("driver trace:"), std::string::npos);
  EXPECT_NE(r.output.find("p99_us"), std::string::npos);  // summary table
  std::ifstream f(trace);
  ASSERT_TRUE(f.good());
  std::string json((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  for (const char* cat :
       {"fetch", "service", "prefetch", "replay", "eviction"}) {
    EXPECT_NE(json.find("\"cat\":\"" + std::string(cat) + "\""),
              std::string::npos)
        << "missing category " << cat;
  }
  std::remove(trace.c_str());
}

TEST(Cli, TraceCategoriesFilterAndValidation) {
  std::string trace = std::string(::testing::TempDir()) + "/evict.trace.json";
  CmdResult r = run_cli(
      "--workload random --size-mib 24 --gpu-mib 16 "
      "--trace-categories eviction --trace-out " + trace);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream f(trace);
  std::string json((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"cat\":\"eviction\""), std::string::npos);
  EXPECT_EQ(json.find("\"cat\":\"service\",\"ph\":"), std::string::npos);
  std::remove(trace.c_str());

  CmdResult bad = run_cli("--trace-out x.json --trace-categories bogus");
  EXPECT_NE(bad.exit_code, 0);
  EXPECT_NE(bad.output.find("bad --trace-categories"), std::string::npos);
}

TEST(Cli, LocalNumericFlagsParseStrictly) {
  // The flags uvmsim_cli parses itself go through the same strict parsers
  // as the shared knobs: junk, signs and zero caps are config errors.
  for (const char* args :
       {"--split-watermark abc", "--split-watermark 0.05junk",
        "--trace-out x.json --trace-cap -5", "--trace-cap 12abc",
        "--trace-cap 0"}) {
    CmdResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
  }
  std::string trace = std::string(::testing::TempDir()) + "/cap.trace.json";
  CmdResult capped = run_cli("--workload regular --size-mib 4 --gpu-mib 16 "
                             "--trace-out " + trace + " --trace-cap 64");
  EXPECT_EQ(capped.exit_code, 0) << capped.output;
  std::remove(trace.c_str());
  CmdResult marks = run_cli(
      "--workload regular --size-mib 4 --gpu-mib 16 "
      "--split-watermark 0.1 --fine-watermark 0.02");
  EXPECT_EQ(marks.exit_code, 0) << marks.output;
}

TEST(Cli, NoTraceFlagsNoTraceOutput) {
  CmdResult r = run_cli("--workload regular --size-mib 4 --gpu-mib 16");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.find("driver trace"), std::string::npos);
}

TEST(Cli, ReplayMissingTraceFails) {
  CmdResult r = run_cli("--replay-trace /does/not/exist.trace");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

TEST(Cli, ConfigKnobsAccepted) {
  CmdResult r = run_cli(
      "--workload random --size-mib 6 --gpu-mib 16 --prefetch adaptive "
      "--policy once --eviction access_counter --chunking on "
      "--split-watermark 0.1 --fine-watermark 0.02 "
      "--batch-size 64 --thrash pin --seed 7");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Cli, BadChunkingConfigRejected) {
  CmdResult r = run_cli("--workload regular --size-mib 4 --chunking maybe");
  EXPECT_NE(r.exit_code, 0) << r.output;

  // fine > split violates the watermark ordering: config error exit code.
  CmdResult r2 = run_cli(
      "--workload regular --size-mib 4 --split-watermark 0.1 "
      "--fine-watermark 0.5");
  EXPECT_EQ(r2.exit_code, 2) << r2.output;
  EXPECT_NE(r2.output.find("config error"), std::string::npos);
}

TEST(Cli, ConfigErrorGetsDistinctExitCode) {
  CmdResult r = run_cli("--workload regular --size-mib 4 --batch-size 0");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("config error"), std::string::npos);
  EXPECT_NE(r.output.find("batch_size"), std::string::npos);

  CmdResult r2 = run_cli(
      "--workload regular --size-mib 4 --hazard-dma-fail-rate 1.5");
  EXPECT_EQ(r2.exit_code, 2) << r2.output;
  EXPECT_NE(r2.output.find("config error"), std::string::npos);
}

// Pins the tool-wide exit-code matrix (core/errors.h): 0 success, 1
// usage / I/O, 2 invalid configuration, 3 simulation failure. uvm_campaign
// exits with the same table (plus 4 = quarantined) and ProcessWorker
// classifies child exits by inverting it, so drift here silently corrupts
// fleet retry policy.
TEST(Cli, ZeroSizeRejected) {
  // The whole-request checks of a campaign queue line apply to the CLI's
  // request too.
  CmdResult r = run_cli("--workload regular --size-mib 0");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("size-mib"), std::string::npos);
  CmdResult r2 = run_cli("--workload regular --size-mib 4 --gpu-mib 0");
  EXPECT_EQ(r2.exit_code, 2) << r2.output;
  EXPECT_NE(r2.output.find("gpu-mib"), std::string::npos);
}

TEST(Cli, ManagedVaPast16TiBIsAConfigError) {
  // 4 PiB of managed VA is 2^40 pages, past the 2^32 a 32-bit lane can
  // name. The bound is checked before any VaBlock is built, so the request
  // fails as a config error even under a 2 GiB address-space cap (the
  // sanitizers reserve more than that for shadow memory, so they run it
  // uncapped).
  std::string cap = "ulimit -v 2097152; ";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  cap.clear();
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  cap.clear();
#endif
#endif
  CmdResult r =
      run_cli("--workload regular --size-mib 4294967296 --gpu-mib 32", cap);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("range_bytes"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("4503599627370496 bytes"), std::string::npos)
      << r.output;
}

TEST(Cli, ExitCodeMatrix) {
  // 0: a successful run.
  EXPECT_EQ(run_cli("--workload regular --size-mib 4 --gpu-mib 16").exit_code,
            0);
  // 1: usage problems (bad flag, missing value) and I/O failures share the
  // generic error code.
  EXPECT_EQ(run_cli("--frobnicate").exit_code, 1);
  EXPECT_EQ(run_cli("--workload").exit_code, 1);
  // A missing replay trace is an I/O-class failure, not a config error.
  EXPECT_EQ(run_cli("--replay-trace /does/not/exist.trace").exit_code, 1);
  // 2: ConfigError — deterministic, never retried by the campaign.
  EXPECT_EQ(run_cli("--workload regular --size-mib 4 --batch-size 0")
                .exit_code,
            2);
  // An unknown workload name is a bad knob value like any other.
  EXPECT_EQ(run_cli("--workload nope --size-mib 4").exit_code, 2);
  // 3 (SimulationError) has no benign deterministic trigger from flags;
  // the mapping is pinned at the unit level (campaign_test exit-matrix
  // round trip) and exercised end-to-end by the campaign worker tests.
}

TEST(Cli, HazardRunPrintsRecoveryReport) {
  CmdResult r = run_cli(
      "--workload sgemm --size-mib 24 --gpu-mib 16 "
      "--hazard-dma-fail-rate 0.05 --hazard-pma-fail-rate 0.05");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("hazard injection & recovery"), std::string::npos);
  EXPECT_NE(r.output.find("dma_retries"), std::string::npos);
}

TEST(Cli, ZeroHazardRatesStaySilent) {
  CmdResult r = run_cli(
      "--workload regular --size-mib 4 --hazard-dma-fail-rate 0");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("hazard injection"), std::string::npos);
}

}  // namespace
