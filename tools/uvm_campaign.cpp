// uvm_campaign — crash-safe experiment-fleet runner.
//
// Reads a queue file of experiment requests (one `key=value` line each, see
// src/campaign/request.h), dedupes them through the content-addressed result
// cache, shards the remaining work across workers (optionally fork/exec'd
// uvmsim_cli children with a wall-clock watchdog), retries classified
// failures with deterministic backoff, and quarantines poison requests after
// the attempt budget. Progress is checkpointed through an append-only
// journal: SIGKILL the campaign at any instant and rerunning the same
// command resumes without redoing committed work — and finishes with a
// result store byte-identical to an uninterrupted run.
//
//   uvm_campaign --queue sweep.q --store results/campaign
//   uvm_campaign --queue sweep.q --store results/campaign --isolate process
//       --cli build/tools/uvmsim_cli --timeout-ms 30000
//
// Exit codes follow the shared matrix in core/errors.h: 0 all requests
// completed, 1 usage / I/O problem, 2 invalid configuration, 3 simulation
// failure outside the worker fleet, 4 finished but some requests are
// quarantined.
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "campaign/campaign.h"
#include "campaign/executor.h"
#include "core/errors.h"

namespace {

using namespace uvmsim;
using namespace uvmsim::campaign;

struct CampaignCliOptions {
  std::string queue_path;
  CampaignConfig cfg;
};

void print_help() {
  std::cout <<
      R"(uvm_campaign — crash-safe experiment-fleet runner

options:
  --queue FILE         queue file, one key=value request per line (required)
  --store DIR          result store directory; created if needed (required)
  --workers N          worker count (default: UVMSIM_THREADS; 0 = hardware)
  --isolate MODE       thread | process (default thread) — process mode
                       fork/execs uvmsim_cli per attempt so a worker segfault
                       or hang is a classified result, not a campaign death
  --cli PATH           uvmsim_cli binary for --isolate process
  --timeout-ms N       per-attempt watchdog deadline, process mode only
                       (default 60000; 0 = no deadline)
  --retries N          attempt budget per request before quarantine
                       (default 3; >= 1)
  --backoff-ms N       base retry backoff, doubling per attempt (default 20)

campaign-level hazard injection (testing; rates in [0,1)):
  --hazard-worker-crash-rate R    a worker attempt crashes
  --hazard-worker-hang-rate R     a worker attempt hangs until the watchdog
  --hazard-journal-truncate-rate R  a journal append is torn mid-line
  --hazard-seed N                 hazard decision seed (default 0)

exit codes (shared with uvmsim_cli): 0 all completed, 1 usage/IO,
  2 bad config, 3 simulation failure outside the fleet (e.g. during
  queue validation), 4 some requests quarantined
)";
}

/// Parses the flags. A malformed or out-of-range number throws ConfigError
/// naming its flag (exit 2), through the parsers queue lines use.
std::optional<CampaignCliOptions> parse(int argc, char** argv) {
  constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
  CampaignCliOptions o;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--help" || a == "-h") {
      print_help();
      return std::nullopt;
    } else if (a == "--queue") {
      if (!(v = need_value(i))) return std::nullopt;
      o.queue_path = v;
    } else if (a == "--store") {
      if (!(v = need_value(i))) return std::nullopt;
      o.cfg.store_dir = v;
    } else if (a == "--workers") {
      if (!(v = need_value(i))) return std::nullopt;
      o.cfg.workers = parse_u64(a, v);
      if (o.cfg.workers == 0) o.cfg.workers = default_workers();
    } else if (a == "--isolate") {
      if (!(v = need_value(i))) return std::nullopt;
      const std::string mode = v;
      if (mode == "thread") {
        o.cfg.process_isolation = false;
      } else if (mode == "process") {
        o.cfg.process_isolation = true;
      } else {
        std::cerr << "bad --isolate: " << mode << " (thread | process)\n";
        return std::nullopt;
      }
    } else if (a == "--cli") {
      if (!(v = need_value(i))) return std::nullopt;
      o.cfg.cli_path = v;
    } else if (a == "--timeout-ms") {
      if (!(v = need_value(i))) return std::nullopt;
      o.cfg.run_timeout_ms = parse_u64(a, v);
    } else if (a == "--retries") {
      if (!(v = need_value(i))) return std::nullopt;
      o.cfg.retry.max_attempts =
          static_cast<std::uint32_t>(parse_u64(a, v, kU32));
    } else if (a == "--backoff-ms") {
      if (!(v = need_value(i))) return std::nullopt;
      o.cfg.retry.backoff_base_ms =
          static_cast<std::uint32_t>(parse_u64(a, v, kU32));
    } else if (a == "--hazard-worker-crash-rate") {
      if (!(v = need_value(i))) return std::nullopt;
      o.cfg.hazards.worker_crash_rate = parse_double(a, v);
    } else if (a == "--hazard-worker-hang-rate") {
      if (!(v = need_value(i))) return std::nullopt;
      o.cfg.hazards.worker_hang_rate = parse_double(a, v);
    } else if (a == "--hazard-journal-truncate-rate") {
      if (!(v = need_value(i))) return std::nullopt;
      o.cfg.hazards.journal_truncate_rate = parse_double(a, v);
    } else if (a == "--hazard-seed") {
      if (!(v = need_value(i))) return std::nullopt;
      o.cfg.hazards.seed = parse_u64(a, v);
    } else {
      std::cerr << "unknown option: " << a << " (try --help)\n";
      return std::nullopt;
    }
  }
  if (o.queue_path.empty() || o.cfg.store_dir.empty()) {
    std::cerr << "both --queue and --store are required (try --help)\n";
    return std::nullopt;
  }
  return o;
}

int run_campaign_cli(int argc, char** argv) {
  auto opts = parse(argc, argv);
  if (!opts) return argc > 1 && std::string(argv[1]) == "--help" ? 0 : 1;

  std::ifstream qf(opts->queue_path);
  if (!qf) {
    std::cerr << "cannot open queue: " << opts->queue_path << "\n";
    return 1;
  }
  std::vector<RunRequest> queue = parse_queue_file(qf);
  if (queue.empty()) {
    std::cerr << "queue is empty: " << opts->queue_path << "\n";
    return 1;
  }

  Campaign campaign(opts->cfg, std::move(queue));
  const CampaignReport rep = campaign.run();

  // Deterministic summary: counts and ids only, no wall-clock, no worker
  // identities — a resumed campaign's numbers differ only where they must
  // (cached / executed), never in the terminal states.
  std::cout << "campaign: " << rep.queued << " queued, " << rep.unique
            << " unique (" << rep.deduped << " deduped)\n"
            << "  cached " << rep.cached << ", executed " << rep.executed
            << " attempts (" << rep.retried << " retried)\n"
            << "  completed " << rep.completed << ", quarantined "
            << rep.quarantined << "\n";
  if (rep.journal_damaged_lines > 0) {
    std::cout << "  journal: " << rep.journal_damaged_lines
              << " damaged line(s) skipped during recovery\n";
  }
  for (const std::string& line : rep.quarantine_lines) {
    std::cout << "  quarantined " << line << "\n";
  }
  std::cout << "store: " << opts->cfg.store_dir << "\n";
  return rep.all_completed() ? uvmsim::kExitOk : uvmsim::kExitQuarantined;
}

}  // namespace

int main(int argc, char** argv) {
  // Same matrix as uvmsim_cli (core/errors.h). SimulationError gets its
  // own branch — it used to fall through to the generic 1, so a model bug
  // surfacing outside the fleet (queue validation, a thread-mode worker
  // rethrow) was indistinguishable from a bad flag.
  try {
    return run_campaign_cli(argc, argv);
  } catch (const uvmsim::ConfigError& e) {
    std::cerr << "config error: " << e.what() << "\n";
    return uvmsim::exit_code_for(uvmsim::FailureKind::Config);
  } catch (const uvmsim::SimulationError& e) {
    std::cerr << "simulation error: " << e.what() << "\n";
    return uvmsim::exit_code_for(uvmsim::FailureKind::Simulation);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return uvmsim::exit_code_for(uvmsim::FailureKind::Io);
  }
}
