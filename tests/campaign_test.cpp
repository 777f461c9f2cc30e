// Campaign subsystem tests: request canonicalization and content addresses,
// journal durability and recovery, retry/quarantine bookkeeping, hazard
// determinism, and end-to-end campaigns (thread and process isolation)
// including the kill-and-resume determinism contract at the library level.
// The process-level SIGKILL matrix lives in scripts/campaign_smoke.sh.
#include "campaign/campaign.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/executor.h"
#include "campaign/journal.h"
#include "campaign/request.h"
#include "campaign/result_store.h"
#include "campaign/scheduler.h"
#include "campaign/worker.h"
#include "core/errors.h"
#include "sim/hazards.h"

namespace uvmsim::campaign {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Deterministic snapshot of a store's contracted artifacts: results/,
/// MANIFEST.tsv, failures.tsv — everything except the journal and tmp/.
std::string store_snapshot(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const std::string rel = fs::relative(e.path(), dir).string();
    if (rel == "journal.log" || rel.rfind("tmp/", 0) == 0) continue;
    files[rel] = slurp(e.path());
  }
  std::ostringstream os;
  for (const auto& [rel, contents] : files) {
    os << "=== " << rel << " ===\n" << contents;
  }
  return os.str();
}

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("uvmsim_campaign_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string store(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::vector<RunRequest> queue_of(const std::string& text) {
    std::istringstream is(text);
    return parse_queue_file(is);
  }

  /// A tiny fast request; `tweak` distinguishes requests.
  static std::string tiny(const std::string& tweak = "") {
    return "workload=regular size-mib=4 gpu-mib=8 batch-size=64 " + tweak;
  }

  /// Values following every `--backend` occurrence in a CLI argv.
  static std::vector<std::string> gpu_args_of(
      const std::vector<std::string>& args) {
    std::vector<std::string> vals;
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
      if (args[i] == "--backend") vals.push_back(args[i + 1]);
    }
    return vals;
  }

  fs::path dir_;
};

// ---------------------------------------------------------------- requests

TEST_F(CampaignTest, CanonicalFormIsOrderAndDefaultInsensitive) {
  const RunRequest a = parse_request_line("workload=sgemm size-mib=96");
  const RunRequest b =
      parse_request_line("size-mib=96 workload=sgemm prefetch=on seed=42");
  EXPECT_EQ(canonical_request(a), canonical_request(b));
  EXPECT_EQ(request_id(a), request_id(b));

  const RunRequest c = parse_request_line("workload=sgemm size-mib=97");
  EXPECT_NE(request_id(a), request_id(c));
}

TEST_F(CampaignTest, BackendKeyPreservesLegacyContentAddresses) {
  // A request that never mentions the backend knob — or spells the default
  // explicitly — must keep the exact canonical line (and content address)
  // it had before the knob existed: result stores written by older
  // campaigns stay valid.
  const RunRequest legacy = parse_request_line("workload=sgemm size-mib=96");
  const RunRequest explicit_default =
      parse_request_line("workload=sgemm size-mib=96 backend=driver");
  EXPECT_EQ(canonical_request(legacy), canonical_request(explicit_default));
  EXPECT_EQ(canonical_request(legacy).find("backend="), std::string::npos);

  // Pinned: the default canonical form ends at the sabotage key, exactly as
  // it did before the backend field was added.
  const std::string canon = canonical_request(legacy);
  EXPECT_EQ(canon.substr(canon.size() - std::string(" sabotage=none").size()),
            " sabotage=none");

  // Non-default backends do hash (appended after the legacy keys).
  const RunRequest gpu =
      parse_request_line("workload=sgemm size-mib=96 backend=gpu");
  EXPECT_NE(request_id(legacy), request_id(gpu));
  EXPECT_NE(canonical_request(gpu).find(" backend=gpu"), std::string::npos);
}

TEST_F(CampaignTest, BackendKeyMapsToConfigAndCliArgs) {
  const RunRequest gpu = parse_request_line(tiny("backend=gpu"));
  EXPECT_EQ(request_sim_config(gpu).driver.backend,
            ServicingBackendKind::GpuDriven);

  const auto args = gpu_args_of(request_cli_args(gpu));
  ASSERT_EQ(args.size(), 1u);
  EXPECT_EQ(args[0], "gpu");

  // Default requests forward no --backend flag: the child CLI invocation —
  // and thus the process-isolation worker's behaviour — is unchanged.
  const RunRequest legacy = parse_request_line(tiny());
  EXPECT_EQ(request_sim_config(legacy).driver.backend,
            ServicingBackendKind::DriverCentric);
  EXPECT_TRUE(gpu_args_of(request_cli_args(legacy)).empty());

  EXPECT_THROW((void)request_sim_config(parse_request_line(
                   tiny("backend=fpga"))),
               ConfigError);
}

TEST_F(CampaignTest, PrefetchPolicyKeyPreservesLegacyContentAddresses) {
  // Same append-only contract as backend=: requests that never mention the
  // knob — or spell the default — keep their pre-PR-10 canonical line and
  // content address, so cached results from older campaigns stay valid.
  const RunRequest legacy = parse_request_line("workload=sgemm size-mib=96");
  const RunRequest explicit_default =
      parse_request_line("workload=sgemm size-mib=96 prefetch-policy=tree");
  EXPECT_EQ(canonical_request(legacy), canonical_request(explicit_default));
  EXPECT_EQ(canonical_request(legacy).find("prefetch-policy="),
            std::string::npos);

  const RunRequest markov =
      parse_request_line("workload=sgemm size-mib=96 prefetch-policy=markov");
  EXPECT_NE(request_id(legacy), request_id(markov));
  EXPECT_NE(canonical_request(markov).find(" prefetch-policy=markov"),
            std::string::npos);
}

TEST_F(CampaignTest, PrefetchPolicyKeyMapsToConfigAndCliArgs) {
  const RunRequest markov = parse_request_line(tiny("prefetch-policy=markov"));
  EXPECT_EQ(request_sim_config(markov).driver.prefetch, PrefetchMode::Markov);
  const auto args = request_cli_args(markov);
  bool forwarded = false;
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    forwarded |= args[i] == "--prefetch-policy" && args[i + 1] == "markov";
  }
  EXPECT_TRUE(forwarded);

  // Default requests forward no flag (worker argv unchanged), and the
  // invalid combinations stay config-time errors.
  const auto legacy_args = request_cli_args(parse_request_line(tiny()));
  for (const std::string& a : legacy_args) EXPECT_NE(a, "--prefetch-policy");
  EXPECT_THROW(
      (void)request_sim_config(parse_request_line(tiny("prefetch-policy=ai"))),
      ConfigError);
  EXPECT_THROW((void)request_sim_config(parse_request_line(
                   tiny("prefetch=adaptive prefetch-policy=markov"))),
               ConfigError);
}

TEST_F(CampaignTest, EvictionPanelKeysMapToConfig) {
  EXPECT_EQ(request_sim_config(parse_request_line(tiny("eviction=clock")))
                .driver.eviction_policy,
            EvictionPolicyKind::Clock);
  EXPECT_EQ(request_sim_config(parse_request_line(tiny("eviction=2q")))
                .driver.eviction_policy,
            EvictionPolicyKind::TwoQ);
  EXPECT_THROW(
      (void)request_sim_config(parse_request_line(tiny("eviction=fifo"))),
      ConfigError);
}

TEST_F(CampaignTest, RequestIdIs16LowercaseHex) {
  const std::string id = request_id(parse_request_line(tiny()));
  EXPECT_EQ(id.size(), 16u);
  EXPECT_EQ(id.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST_F(CampaignTest, RequestParsingRejectsMalformedLines) {
  EXPECT_THROW(parse_request_line("workload"), ConfigError);
  EXPECT_THROW(parse_request_line("frobnicate=1"), ConfigError);
  EXPECT_THROW(parse_request_line("size-mib=banana"), ConfigError);
  EXPECT_THROW(parse_request_line("size-mib=-1"), ConfigError);
  EXPECT_THROW(parse_request_line("workload=trace"), ConfigError);  // no trace=
  EXPECT_THROW(parse_request_line("trace=f.trace"), ConfigError);
  EXPECT_THROW(parse_request_line("workload=regular size-mib=0"), ConfigError);
  EXPECT_THROW(parse_request_line("gpu-mib=0"), ConfigError);
  EXPECT_THROW(parse_request_line("sabotage=maybe"), ConfigError);
  // Unsigned knobs take no sign, no junk, and must fit their field.
  for (const std::string bad : {"-1", "-5", "4294967297", "abc", "+5", "5x"}) {
    EXPECT_THROW(parse_request_line("batch-size=" + bad), ConfigError) << bad;
    EXPECT_THROW(parse_request_line("threshold=" + bad), ConfigError) << bad;
  }
  // The density threshold is a percent in 1..100.
  EXPECT_THROW(parse_request_line("threshold=0"), ConfigError);
  EXPECT_THROW(parse_request_line("threshold=101"), ConfigError);
  EXPECT_EQ(parse_request_line("threshold=1").threshold, 1u);
  EXPECT_EQ(parse_request_line("threshold=100").threshold, 100u);
  EXPECT_THROW(parse_request_line("seed=18446744073709551616"), ConfigError);
  EXPECT_EQ(parse_request_line("seed=18446744073709551615").seed,
            18446744073709551615ull);
}

TEST_F(CampaignTest, LegacyPrefetchRequestIdsArePinned) {
  // Content addresses of requests stored before the prefetch knobs mapped
  // to one driver mode: they must never move, or cached results are lost.
  const std::string base = "workload=regular size-mib=4 gpu-mib=16 ";
  const std::pair<const char*, const char*> pinned[] = {
      {"", "2334de0e3c164850"},
      {"prefetch=off", "0534077219eb6f86"},
      {"prefetch=adaptive", "a65e3d8033ce33e6"},
      {"prefetch-policy=markov", "0d474a5789b374cd"},
      {"prefetch=off prefetch-policy=markov", "30a72df10632c841"},
  };
  for (const auto& [suffix, id] : pinned) {
    EXPECT_EQ(request_id(parse_request_line(base + suffix)), id) << suffix;
  }
}

TEST_F(CampaignTest, QueueFileErrorsCarryLineNumber) {
  std::istringstream is("workload=regular\nbogus-key=1\n");
  try {
    (void)parse_queue_file(is);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.param(), "queue line 2");
  }
}

TEST_F(CampaignTest, TraceRequestsHashContentNotPath) {
  const std::string trace_text =
      "uvmsim-trace v1\nrange data 65536 1\nkernel k 16\nwarp\n"
      "a 1 200 0:0 0:1\n";
  const fs::path t1 = dir_ / "one.trace";
  const fs::path t2 = dir_ / "elsewhere.trace";
  std::ofstream(t1) << trace_text;
  std::ofstream(t2) << trace_text;

  RunRequest a = parse_request_line("workload=trace trace=" + t1.string());
  RunRequest b = parse_request_line("workload=trace trace=" + t2.string());
  load_trace_content(a);
  load_trace_content(b);
  EXPECT_EQ(request_id(a), request_id(b));

  std::ofstream(t2) << trace_text << "warp\na 0 100 0:2\n";
  RunRequest c = parse_request_line("workload=trace trace=" + t2.string());
  load_trace_content(c);
  EXPECT_NE(request_id(a), request_id(c));
}

TEST_F(CampaignTest, MissingTraceFileIsConfigError) {
  RunRequest r = parse_request_line("workload=trace trace=/no/such.trace");
  EXPECT_THROW(load_trace_content(r), ConfigError);
}

// ----------------------------------------------------------------- journal

TEST_F(CampaignTest, JournalRoundTripsRecords) {
  const std::string path = store("j.log");
  {
    Journal j(path);
    j.append({JournalRecord::Kind::Done, "00000000000000aa", 0,
              FailureKind::None, ""});
    j.append({JournalRecord::Kind::Fail, "00000000000000bb", 1,
              FailureKind::Crash, "signal=11"});
    j.append({JournalRecord::Kind::Fail, "00000000000000bb", 2,
              FailureKind::Timeout, "deadline 500 ms"});
    j.append({JournalRecord::Kind::Quarantine, "00000000000000cc", 3,
              FailureKind::Crash, "exit=134"});
  }
  Journal j(path);
  const JournalState st = j.recover();
  EXPECT_EQ(st.valid_records, 4u);
  EXPECT_EQ(st.damaged_lines, 0u);
  EXPECT_EQ(st.done.count("00000000000000aa"), 1u);
  EXPECT_EQ(st.attempts.at("00000000000000bb"), 2u);
  ASSERT_EQ(st.quarantined.count("00000000000000cc"), 1u);
  const JournalRecord& q = st.quarantined.at("00000000000000cc");
  EXPECT_EQ(q.attempt, 3u);
  EXPECT_EQ(q.failure, FailureKind::Crash);
  EXPECT_EQ(q.detail, "exit=134");
}

TEST_F(CampaignTest, JournalSkipsDamagedLines) {
  const std::string path = store("j.log");
  {
    Journal j(path);
    j.append({JournalRecord::Kind::Done, "00000000000000aa", 0,
              FailureKind::None, ""});
  }
  // Corrupt the journal by hand: garbage line, checksum mismatch, and a
  // valid record after them (recovery must still find it).
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "garbage that is not a record\n";
    out << "J1 done 00000000000000bb|deadbeef\n";  // wrong checksum
  }
  {
    Journal j(path);
    j.append({JournalRecord::Kind::Done, "00000000000000cc", 0,
              FailureKind::None, ""});
  }
  Journal j(path);
  const JournalState st = j.recover();
  EXPECT_EQ(st.valid_records, 2u);
  EXPECT_EQ(st.damaged_lines, 2u);
  EXPECT_EQ(st.done.count("00000000000000aa"), 1u);
  EXPECT_EQ(st.done.count("00000000000000bb"), 0u);
  EXPECT_EQ(st.done.count("00000000000000cc"), 1u);
}

TEST_F(CampaignTest, JournalTornTailIsSealedAndSkipped) {
  const std::string path = store("j.log");
  {
    Journal j(path);
    j.append({JournalRecord::Kind::Done, "00000000000000aa", 0,
              FailureKind::None, ""});
    j.tear_next_append();
    j.append({JournalRecord::Kind::Done, "00000000000000bb", 0,
              FailureKind::None, ""});
  }
  // Reopening seals the torn tail; a new record must not be swallowed.
  {
    Journal j(path);
    j.append({JournalRecord::Kind::Done, "00000000000000cc", 0,
              FailureKind::None, ""});
  }
  Journal j(path);
  const JournalState st = j.recover();
  EXPECT_EQ(st.damaged_lines, 1u);
  EXPECT_EQ(st.done.count("00000000000000aa"), 1u);
  EXPECT_EQ(st.done.count("00000000000000bb"), 0u);  // torn away
  EXPECT_EQ(st.done.count("00000000000000cc"), 1u);
}

// --------------------------------------------------------------- scheduler

TEST_F(CampaignTest, LedgerQuarantinesAfterExactlyMaxAttempts) {
  RunLedger ledger(RetryPolicy{3, 10, 1000});
  Decision d = ledger.on_outcome("id", FailureKind::Crash);
  EXPECT_EQ(d.action, Decision::Action::Retry);
  EXPECT_EQ(d.attempt, 1u);
  d = ledger.on_outcome("id", FailureKind::Timeout);
  EXPECT_EQ(d.action, Decision::Action::Retry);
  EXPECT_EQ(d.attempt, 2u);
  d = ledger.on_outcome("id", FailureKind::Crash);
  EXPECT_EQ(d.action, Decision::Action::Quarantine);
  EXPECT_EQ(d.attempt, 3u);
}

TEST_F(CampaignTest, LedgerQuarantinesConfigFailuresImmediately) {
  RunLedger ledger(RetryPolicy{5, 10, 1000});
  const Decision d = ledger.on_outcome("id", FailureKind::Config);
  EXPECT_EQ(d.action, Decision::Action::Quarantine);
  EXPECT_EQ(d.attempt, 1u);
}

TEST_F(CampaignTest, LedgerSeedsAttemptsAcrossSessions) {
  RunLedger ledger(RetryPolicy{3, 10, 1000});
  ledger.seed_attempts("id", 2);  // two failures in prior sessions
  EXPECT_EQ(ledger.next_attempt("id"), 3u);
  const Decision d = ledger.on_outcome("id", FailureKind::Crash);
  EXPECT_EQ(d.action, Decision::Action::Quarantine);
  EXPECT_EQ(d.attempt, 3u);
}

TEST_F(CampaignTest, BackoffIsDeterministicAndCapped) {
  const RetryPolicy p{10, 20, 100};
  EXPECT_EQ(p.backoff_ms(1), 0u);
  EXPECT_EQ(p.backoff_ms(2), 20u);
  EXPECT_EQ(p.backoff_ms(3), 40u);
  EXPECT_EQ(p.backoff_ms(4), 80u);
  EXPECT_EQ(p.backoff_ms(5), 100u);  // capped
  EXPECT_EQ(p.backoff_ms(9), 100u);
}

// ----------------------------------------------------------------- hazards

TEST_F(CampaignTest, CampaignHazardDecisionsAreStateless) {
  CampaignHazardConfig cfg;
  cfg.seed = 7;
  cfg.worker_crash_rate = 0.3;
  cfg.worker_hang_rate = 0.2;
  cfg.journal_truncate_rate = 0.5;
  const CampaignHazardInjector a(cfg);
  const CampaignHazardInjector b(cfg);
  bool any_sabotage = false;
  for (std::uint64_t h = 0; h < 64; ++h) {
    for (std::uint32_t attempt = 1; attempt <= 3; ++attempt) {
      EXPECT_EQ(a.worker_sabotage(h * 0x9e3779b97f4a7c15ull, attempt),
                b.worker_sabotage(h * 0x9e3779b97f4a7c15ull, attempt));
      if (a.worker_sabotage(h * 0x9e3779b97f4a7c15ull, attempt) !=
          WorkerSabotage::None) {
        any_sabotage = true;
      }
    }
    EXPECT_EQ(a.journal_truncation(h, 0), b.journal_truncation(h, 0));
  }
  EXPECT_TRUE(any_sabotage);

  CampaignHazardConfig other = cfg;
  other.seed = 8;
  const CampaignHazardInjector c(other);
  bool differs = false;
  for (std::uint64_t h = 0; h < 64 && !differs; ++h) {
    differs = a.worker_sabotage(h * 0x9e3779b97f4a7c15ull, 1) !=
              c.worker_sabotage(h * 0x9e3779b97f4a7c15ull, 1);
  }
  EXPECT_TRUE(differs);
}

TEST_F(CampaignTest, HazardRatesAreValidated) {
  CampaignConfig cfg;
  cfg.store_dir = store("s");
  cfg.hazards.worker_crash_rate = 1.5;
  EXPECT_THROW((Campaign{cfg, {}}), ConfigError);
  cfg.hazards.worker_crash_rate = 0.6;
  cfg.hazards.worker_hang_rate = 0.6;  // sum >= 1
  EXPECT_THROW((Campaign{cfg, {}}), ConfigError);
}

// ---------------------------------------------------------------- campaign

TEST_F(CampaignTest, DedupesIdenticalRequests) {
  CampaignConfig cfg;
  cfg.store_dir = store("s");
  cfg.workers = 1;
  Campaign c(cfg, queue_of(tiny() + "\n" + tiny() + "\n" + tiny("seed=7")));
  const CampaignReport rep = c.run();
  EXPECT_EQ(rep.queued, 3u);
  EXPECT_EQ(rep.unique, 2u);
  EXPECT_EQ(rep.deduped, 1u);
  EXPECT_EQ(rep.executed, 2u);
  EXPECT_EQ(rep.completed, 2u);
  EXPECT_TRUE(rep.all_completed());
}

TEST_F(CampaignTest, SecondRunIsFullyCached) {
  CampaignConfig cfg;
  cfg.store_dir = store("s");
  cfg.workers = 1;
  const std::string q = tiny() + "\n" + tiny("seed=7");
  (void)Campaign(cfg, queue_of(q)).run();
  const CampaignReport rep = Campaign(cfg, queue_of(q)).run();
  EXPECT_EQ(rep.cached, 2u);
  EXPECT_EQ(rep.executed, 0u);
  EXPECT_EQ(rep.completed, 2u);
}

TEST_F(CampaignTest, PoisonRequestQuarantinesAfterExactlyNAttempts) {
  CampaignConfig cfg;
  cfg.store_dir = store("s");
  cfg.workers = 1;
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_base_ms = 1;
  Campaign c(cfg, queue_of(tiny("sabotage=crash") + "\n" + tiny()));
  const CampaignReport rep = c.run();
  EXPECT_EQ(rep.executed, 4u);  // 3 poison attempts + 1 healthy
  EXPECT_EQ(rep.retried, 2u);
  EXPECT_EQ(rep.completed, 1u);
  EXPECT_EQ(rep.quarantined, 1u);
  EXPECT_FALSE(rep.all_completed());
  ASSERT_EQ(rep.quarantine_lines.size(), 1u);
  EXPECT_NE(rep.quarantine_lines[0].find("crash\t3\tinjected"),
            std::string::npos)
      << rep.quarantine_lines[0];
}

TEST_F(CampaignTest, QuarantineBudgetSpansSessions) {
  CampaignConfig cfg;
  cfg.store_dir = store("s");
  cfg.workers = 1;
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_base_ms = 1;
  const std::string q = tiny("sabotage=crash");
  const std::string id = request_id(parse_request_line(q));

  // Simulate two failed attempts from prior (killed) sessions.
  fs::create_directories(fs::path(cfg.store_dir));
  {
    Journal j(cfg.store_dir + "/journal.log");
    j.append({JournalRecord::Kind::Fail, id, 1, FailureKind::Crash,
              "injected"});
    j.append({JournalRecord::Kind::Fail, id, 2, FailureKind::Crash,
              "injected"});
  }
  const CampaignReport rep = Campaign(cfg, queue_of(q)).run();
  EXPECT_EQ(rep.executed, 1u);  // exactly the one remaining attempt
  EXPECT_EQ(rep.quarantined, 1u);
  ASSERT_EQ(rep.quarantine_lines.size(), 1u);
  EXPECT_NE(rep.quarantine_lines[0].find("\t3\t"), std::string::npos)
      << rep.quarantine_lines[0];
}

TEST_F(CampaignTest, QuarantinedRequestStaysQuarantinedOnResume) {
  CampaignConfig cfg;
  cfg.store_dir = store("s");
  cfg.workers = 1;
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff_base_ms = 1;
  const std::string q = tiny("sabotage=crash");
  (void)Campaign(cfg, queue_of(q)).run();
  const CampaignReport rep = Campaign(cfg, queue_of(q)).run();
  EXPECT_EQ(rep.executed, 0u);
  EXPECT_EQ(rep.quarantined, 1u);
}

TEST_F(CampaignTest, ConfigFailureQuarantinesWithoutRetry) {
  CampaignConfig cfg;
  cfg.store_dir = store("s");
  cfg.workers = 1;
  cfg.retry.max_attempts = 5;
  // An unknown workload name only fails at run time, inside the worker.
  Campaign c(cfg, {parse_request_line("workload=nonexistent size-mib=4")});
  const CampaignReport rep = c.run();
  EXPECT_EQ(rep.executed, 1u);
  EXPECT_EQ(rep.retried, 0u);
  EXPECT_EQ(rep.quarantined, 1u);
  ASSERT_EQ(rep.quarantine_lines.size(), 1u);
  EXPECT_NE(rep.quarantine_lines[0].find("config"), std::string::npos);
}

TEST_F(CampaignTest, StoreIsByteIdenticalAcrossWorkerCounts) {
  const std::string q = tiny() + "\n" + tiny("seed=7") + "\n" +
                        tiny("prefetch=off") + "\n" +
                        tiny("sabotage=crash") + "\n" + tiny("policy=once");
  CampaignConfig cfg;
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff_base_ms = 1;
  cfg.store_dir = store("w1");
  cfg.workers = 1;
  (void)Campaign(cfg, queue_of(q)).run();
  cfg.store_dir = store("w4");
  cfg.workers = 4;
  (void)Campaign(cfg, queue_of(q)).run();
  EXPECT_EQ(store_snapshot(store("w1")), store_snapshot(store("w4")));
}

TEST_F(CampaignTest, StoreIsByteIdenticalAfterInterruptedSession) {
  const std::string q = tiny() + "\n" + tiny("seed=7") + "\n" +
                        tiny("sabotage=crash");
  CampaignConfig cfg;
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_base_ms = 1;
  cfg.workers = 2;

  // Reference: uninterrupted.
  cfg.store_dir = store("ref");
  (void)Campaign(cfg, queue_of(q)).run();

  // "Interrupted": a prior session committed one result + observed one
  // poison failure, then died — mid-campaign state reconstructed by hand.
  cfg.store_dir = store("resumed");
  {
    ResultStore st(cfg.store_dir);
    Journal j(st.journal_path());
    RunRequest first = parse_request_line(tiny());
    const std::string id = request_id(first);
    const RunOutcome o = InProcessWorker().run(first, WorkerSabotage::None);
    ASSERT_TRUE(o.ok());
    st.put(id, o.result);
    j.append({JournalRecord::Kind::Done, id, 0, FailureKind::None, ""});
    const std::string poison_id =
        request_id(parse_request_line(tiny("sabotage=crash")));
    j.append({JournalRecord::Kind::Fail, poison_id, 1, FailureKind::Crash,
              "injected"});
    j.tear_next_append();  // and its final append tore mid-line
    j.append({JournalRecord::Kind::Fail, poison_id, 2, FailureKind::Crash,
              "injected"});
  }
  const CampaignReport rep = Campaign(cfg, queue_of(q)).run();
  EXPECT_EQ(rep.cached, 1u);
  EXPECT_GE(rep.journal_damaged_lines, 1u);
  EXPECT_EQ(store_snapshot(store("ref")), store_snapshot(store("resumed")));
}

TEST_F(CampaignTest, InjectedJournalTruncationDoesNotChangeFinalStore) {
  const std::string q = tiny() + "\n" + tiny("seed=7") + "\n" +
                        tiny("prefetch=off");
  CampaignConfig cfg;
  cfg.workers = 1;
  cfg.store_dir = store("clean");
  (void)Campaign(cfg, queue_of(q)).run();

  cfg.store_dir = store("torn");
  cfg.hazards.journal_truncate_rate = 0.9;
  cfg.hazards.seed = 3;
  (void)Campaign(cfg, queue_of(q)).run();
  // Re-run to heal: torn records mean reruns, never wrong results.
  const CampaignReport rep = Campaign(cfg, queue_of(q)).run();
  EXPECT_EQ(rep.quarantined, 0u);
  EXPECT_EQ(store_snapshot(store("clean")), store_snapshot(store("torn")));
}

TEST_F(CampaignTest, WorkerSabotageHazardEventuallyCompletes) {
  CampaignConfig cfg;
  cfg.store_dir = store("s");
  cfg.workers = 2;
  cfg.retry.max_attempts = 10;
  cfg.retry.backoff_base_ms = 1;
  cfg.hazards.worker_crash_rate = 0.4;
  cfg.hazards.seed = 11;
  const std::string q = tiny() + "\n" + tiny("seed=7") + "\n" +
                        tiny("seed=8") + "\n" + tiny("seed=9");
  const CampaignReport rep = Campaign(cfg, queue_of(q)).run();
  EXPECT_EQ(rep.completed, 4u);
  EXPECT_TRUE(rep.all_completed());
}

TEST_F(CampaignTest, ManifestListsEveryQueueEntryInOrder) {
  CampaignConfig cfg;
  cfg.store_dir = store("s");
  cfg.workers = 1;
  cfg.retry.max_attempts = 1;
  (void)Campaign(cfg, queue_of(tiny() + "\n" + tiny("sabotage=crash") + "\n" +
                               tiny()))
      .run();
  const std::string manifest =
      slurp(fs::path(cfg.store_dir) / "MANIFEST.tsv");
  std::istringstream is(manifest);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line[0], '#');
  std::getline(is, line);
  EXPECT_EQ(line.rfind("0\t", 0), 0u);
  EXPECT_NE(line.find("\tdone\t"), std::string::npos);
  std::getline(is, line);
  EXPECT_NE(line.find("\tquarantined\t"), std::string::npos);
  std::getline(is, line);
  EXPECT_EQ(line.rfind("2\t", 0), 0u);  // duplicate listed again
  EXPECT_NE(line.find("\tdone\t"), std::string::npos);
}

TEST_F(CampaignTest, CampaignConfigIsValidated) {
  CampaignConfig cfg;  // empty store dir
  EXPECT_THROW(Campaign(cfg, {}), ConfigError);
  cfg.store_dir = store("s");
  cfg.process_isolation = true;  // without cli_path
  EXPECT_THROW(Campaign(cfg, {}), ConfigError);
  cfg.process_isolation = false;
  cfg.retry.max_attempts = 0;
  EXPECT_THROW(Campaign(cfg, {}), ConfigError);
}

// ------------------------------------------------------- process isolation

CampaignConfig process_cfg(const std::string& store_dir) {
  CampaignConfig cfg;
  cfg.store_dir = store_dir;
  cfg.workers = 2;
  cfg.process_isolation = true;
  cfg.cli_path = UVMSIM_CLI_PATH;
  cfg.run_timeout_ms = 30000;
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff_base_ms = 1;
  return cfg;
}

TEST_F(CampaignTest, ProcessIsolationMatchesInProcessResults) {
  const std::string q = tiny() + "\n" + tiny("seed=7");
  CampaignConfig thread_cfg;
  thread_cfg.store_dir = store("thr");
  thread_cfg.workers = 1;
  (void)Campaign(thread_cfg, queue_of(q)).run();
  (void)Campaign(process_cfg(store("proc")), queue_of(q)).run();
  EXPECT_EQ(store_snapshot(store("thr")), store_snapshot(store("proc")));
}

TEST_F(CampaignTest, InvalidRequestsClassifyAlikeUnderBothIsolations) {
  // A bad enum value, the adaptive+markov pair, an unknown workload and an
  // out-of-range threshold are config errors in either worker: quarantined
  // after one attempt, never retried as if the child had hit an I/O problem.
  std::vector<RunRequest> queue =
      queue_of(tiny("prefetch=sideways") + "\n" +
               tiny("prefetch=adaptive prefetch-policy=markov") + "\n" +
               tiny("workload=nope"));
  // A queue line cannot carry threshold=0 or 101 (parsing rejects it), but
  // a request built in code can.
  for (const std::uint32_t threshold : {0u, 101u}) {
    queue.push_back(queue_of(tiny())[0]);
    queue.back().threshold = threshold;
  }
  CampaignConfig thread_cfg;
  thread_cfg.store_dir = store("thr");
  thread_cfg.workers = 1;
  thread_cfg.retry.max_attempts = 3;
  thread_cfg.retry.backoff_base_ms = 1;
  CampaignConfig proc_cfg = process_cfg(store("proc"));
  proc_cfg.retry.max_attempts = 3;
  for (const CampaignConfig& cfg : {thread_cfg, proc_cfg}) {
    const CampaignReport rep = Campaign(cfg, queue).run();
    EXPECT_EQ(rep.quarantined, 5u);
    EXPECT_EQ(rep.retried, 0u);
    for (const std::string& line : rep.quarantine_lines) {
      // id \t kind \t attempts \t detail
      std::istringstream ls(line);
      std::string id, kind, attempts;
      std::getline(ls, id, '\t');
      std::getline(ls, kind, '\t');
      std::getline(ls, attempts, '\t');
      EXPECT_EQ(kind, "config") << line;
      EXPECT_EQ(attempts, "1") << line;
    }
  }
}

TEST_F(CampaignTest, ProcessIsolationClassifiesRealCrash) {
  const CampaignReport rep =
      Campaign(process_cfg(store("s")), queue_of(tiny("sabotage=crash")))
          .run();
  EXPECT_EQ(rep.quarantined, 1u);
  ASSERT_EQ(rep.quarantine_lines.size(), 1u);
  // A real SIGABRT from the child, not a simulated classification.
  EXPECT_NE(rep.quarantine_lines[0].find("crash\t2\tsignal=6"),
            std::string::npos)
      << rep.quarantine_lines[0];
}

TEST_F(CampaignTest, ProcessIsolationWatchdogKillsHungChild) {
  CampaignConfig cfg = process_cfg(store("s"));
  cfg.run_timeout_ms = 300;
  const CampaignReport rep =
      Campaign(cfg, queue_of(tiny("sabotage=hang"))).run();
  EXPECT_EQ(rep.quarantined, 1u);
  ASSERT_EQ(rep.quarantine_lines.size(), 1u);
  EXPECT_NE(rep.quarantine_lines[0].find("timeout"), std::string::npos)
      << rep.quarantine_lines[0];
}

TEST_F(CampaignTest, ProcessIsolationBadCliPathClassifiesAsIo) {
  CampaignConfig cfg = process_cfg(store("s"));
  cfg.cli_path = "/no/such/binary";
  const CampaignReport rep = Campaign(cfg, queue_of(tiny())).run();
  EXPECT_EQ(rep.quarantined, 1u);
  ASSERT_EQ(rep.quarantine_lines.size(), 1u);
  EXPECT_NE(rep.quarantine_lines[0].find("io"), std::string::npos)
      << rep.quarantine_lines[0];
}

// ---------------------------------------------------------------- executor

TEST_F(CampaignTest, ExecutorCapturesExceptionsPerTask) {
  TaskExecutor exec(3);
  auto outcomes = exec.map_capture(5, [](std::size_t i) -> int {
    if (i == 2) throw std::runtime_error("boom");
    return static_cast<int>(i) * 10;
  });
  ASSERT_EQ(outcomes.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 2) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error, "boom");
    } else {
      ASSERT_TRUE(outcomes[i].ok());
      EXPECT_EQ(*outcomes[i].value, static_cast<int>(i) * 10);
    }
  }
}

// The shared exit-code matrix: exit_code_for (what uvmsim_cli and
// uvm_campaign exit with) and classify_exit_code (how ProcessWorker reads
// a child's status) must stay inverses for every failure class a child can
// self-report. Crash and Timeout are detected from signals/deadlines, not
// exit codes, so they round-trip to the generic error code instead.
TEST_F(CampaignTest, ExitCodeMatrixRoundTrips) {
  EXPECT_EQ(exit_code_for(FailureKind::None), 0);
  EXPECT_EQ(exit_code_for(FailureKind::Io), 1);
  EXPECT_EQ(exit_code_for(FailureKind::Config), 2);
  EXPECT_EQ(exit_code_for(FailureKind::Simulation), 3);
  for (FailureKind k : {FailureKind::None, FailureKind::Config,
                        FailureKind::Simulation, FailureKind::Io}) {
    EXPECT_EQ(classify_exit_code(exit_code_for(k)), k) << to_string(k);
  }
  // Shell-convention exec failure and unknown codes.
  EXPECT_EQ(classify_exit_code(127), FailureKind::Io);
  EXPECT_EQ(classify_exit_code(kExitQuarantined), FailureKind::Crash);
  EXPECT_EQ(classify_exit_code(42), FailureKind::Crash);
}

// The uvm_campaign binary parses its numeric flags through parse_u64 /
// parse_double: junk, a sign or a value too large for the field is a
// config error (exit 2) naming the flag. The queue file does not exist, so
// a flag that parses ends the run at the open (exit 1) and no worker
// starts either way.
TEST_F(CampaignTest, CliRejectsMalformedNumericFlags) {
  auto run = [this](const std::string& flags) {
    const std::string cmd = std::string(UVM_CAMPAIGN_PATH) + " --queue " +
                            store("missing.q") + " --store " + store("s") +
                            " " + flags + " 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    std::string out;
    char buf[512];
    while (pipe != nullptr && fgets(buf, sizeof buf, pipe) != nullptr) {
      out += buf;
    }
    const int status = pipe != nullptr ? pclose(pipe) : -1;
    return std::pair{WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
  };
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--workers", "1x"},
      {"--workers", "abc"},
      {"--workers", "-1"},
      {"--timeout-ms", "5x"},
      {"--retries", "4294967297"},
      {"--backoff-ms", "4294967296"},
      {"--hazard-worker-crash-rate", "0.1junk"},
      {"--hazard-worker-hang-rate", "x"},
      {"--hazard-journal-truncate-rate", "0.5 1"},
      {"--hazard-seed", "7q"},
  };
  for (const auto& [flag, value] : bad) {
    const auto [code, out] = run(flag + " '" + value + "'");
    EXPECT_EQ(code, 2) << flag << " " << value << ": " << out;
    EXPECT_NE(out.find(flag), std::string::npos) << out;
  }
  // Well-formed values, including --workers 0 ("default"), parse.
  for (const std::string good :
       {"--workers 0", "--retries 4294967295", "--hazard-seed 7",
        "--hazard-worker-crash-rate 0.1"}) {
    const auto [code, out] = run(good);
    EXPECT_EQ(code, 1) << good << ": " << out;
    EXPECT_NE(out.find("cannot open queue"), std::string::npos) << out;
  }
}

// Escaped worker exceptions must carry their fleet-level classification so
// retry/quarantine policy keys on the real failure class — the old blind
// catch reduced everything to an unclassified string (seen as Io upstream).
TEST_F(CampaignTest, ExecutorClassifiesEscapedExceptions) {
  TaskExecutor exec(2);
  auto outcomes = exec.map_capture(5, [](std::size_t i) -> int {
    switch (i) {
      case 0: throw ConfigError("Driver.batch_size", "must be positive");
      case 1: throw SimulationError("deadlock");
      case 2: throw IoError("disk full");
      case 3: throw std::runtime_error("worker bug");
      default: return 7;
    }
  });
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_EQ(outcomes[0].kind, FailureKind::Config);
  EXPECT_EQ(outcomes[1].kind, FailureKind::Simulation);
  EXPECT_EQ(outcomes[2].kind, FailureKind::Io);
  EXPECT_EQ(outcomes[3].kind, FailureKind::Crash);
  EXPECT_EQ(outcomes[4].kind, FailureKind::None);
  ASSERT_TRUE(outcomes[4].ok());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(outcomes[i].ok()) << i;
    EXPECT_FALSE(outcomes[i].error.empty()) << i;
    EXPECT_TRUE(is_retryable(outcomes[i].kind) ||
                outcomes[i].kind == FailureKind::Config)
        << i;
  }
  // The one class retries must never touch: deterministic config failures.
  EXPECT_FALSE(is_retryable(outcomes[0].kind));
}

// A non-standard exception (not derived from std::exception) is still a
// classified Crash, not a silent swallow.
TEST_F(CampaignTest, ExecutorClassifiesNonStandardExceptionAsCrash) {
  TaskExecutor exec(1);
  auto outcomes =
      exec.map_capture(1, [](std::size_t) -> int { throw 42; });
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok());
  EXPECT_EQ(outcomes[0].kind, FailureKind::Crash);
  EXPECT_EQ(outcomes[0].error, "(non-standard exception)");
}

TEST_F(CampaignTest, ExecutorDeliversResultsInIndexOrder) {
  TaskExecutor exec(4);
  std::vector<std::size_t> order;
  exec.map_each(
      16, [](std::size_t i) { return i; },
      [&order](std::size_t i, TaskOutcome<std::size_t> o) {
        ASSERT_TRUE(o.ok());
        order.push_back(i);
      });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace uvmsim::campaign
