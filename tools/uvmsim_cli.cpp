// uvmsim command-line interface: run any workload under any driver
// configuration and print a full instrumentation report — the tool a
// downstream user reaches for first.
//
//   uvmsim_cli --workload sgemm --size-mib 96 --gpu-mib 128
//   uvmsim_cli --workload random --size-mib 192 --prefetch off --pattern
//   uvmsim_cli --help
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/request.h"
#include "core/atomic_file.h"
#include "core/errors.h"
#include "core/metrics.h"
#include "core/pattern_analyzer.h"
#include "core/timeline.h"
#include "core/report.h"
#include "baseline/explicit_transfer.h"
#include "core/simulator.h"
#include "workloads/trace_io.h"

namespace {

using namespace uvmsim;

struct CliOptions {
  /// The knobs uvmsim_cli shares with campaign queue lines; parsed, checked
  /// and mapped to a SimConfig by the same code as a campaign request.
  campaign::RunRequest req;
  bool size_set = false;  ///< --size-mib given (--full-scale keeps it then)
  bool gpu_set = false;   ///< --gpu-mib given
  /// Full-fidelity Titan V preset: 12 GB GPU memory, 80 SMs, and (unless
  /// overridden) a 16 GiB oversubscribed working set — millions of 4 KB
  /// pages per run.
  bool full_scale = false;
  std::optional<double> split_watermark;  // unset = DriverConfig default
  std::optional<double> fine_watermark;
  bool pattern = false;
  bool csv = false;
  bool pipelined = false;
  bool explicit_baseline = false;
  std::string dump_trace;    // capture the workload's trace to this file
  std::string replay_trace;  // run this trace file instead of --workload
  std::string trace_out;     // driver-pass trace (Chrome trace_event JSON)
  std::string trace_categories = "all";
  std::uint64_t trace_cap = TraceConfig{}.capacity;
  std::string hazard_self;  // "" | abort | hang — self-sabotage test hook
};

/// The flags that set a shared knob, with the request key each one sets.
constexpr std::pair<std::string_view, const char*> kRequestFlags[] = {
    {"--workload", "workload"},
    {"--size-mib", "size-mib"},
    {"--gpu-mib", "gpu-mib"},
    {"--backend", "backend"},
    {"--prefetch", "prefetch"},
    {"--prefetch-policy", "prefetch-policy"},
    {"--threshold", "threshold"},
    {"--policy", "policy"},
    {"--eviction", "eviction"},
    {"--eviction-policy", "eviction"},
    {"--chunking", "chunking"},
    {"--batch-size", "batch-size"},
    {"--thrash", "thrash"},
    {"--seed", "seed"},
    {"--hazard-seed", "hazard-seed"},
    {"--hazard-dma-fail-rate", "hazard-dma"},
    {"--hazard-fb-corrupt-rate", "hazard-fb"},
    {"--hazard-pma-fail-rate", "hazard-pma"},
    {"--hazard-ac-drop-rate", "hazard-ac"},
};

const char* request_key_for(std::string_view flag) {
  for (const auto& [f, key] : kRequestFlags) {
    if (f == flag) return key;
  }
  return nullptr;
}

void print_help() {
  std::cout <<
      R"(uvmsim_cli — UVM demand-paging simulator front end

options:
  --workload NAME      regular|random|strided|sgemm|stream|cufft|tealeaf|hpgmg|
                       cusparse|bfs
  --size-mib N         managed data footprint (default 64)
  --gpu-mib N          simulated GPU memory (default 128)
  --full-scale         full-fidelity Titan V preset: 12 GB GPU memory,
                       80 SMs, 16 GiB working set (explicit --size-mib /
                       --gpu-mib still win)
  --backend B          driver | gpu — fault-servicing backend: the CPU
                       driver's batched path, or GPUVM-style per-fault
                       GPU-side resolution (default driver)
  --prefetch MODE      on | off | adaptive (default on); adaptive tunes the
                       density threshold from the observed eviction load
  --prefetch-policy P  tree | markov — the predictor behind --prefetch on:
                       the paper's density tree or the online-learned
                       delta-Markov table (default tree). Together the two
                       flags pick one prefetch mode: off, tree, adaptive or
                       markov; adaptive with markov is a config error
  --threshold P        density threshold percent 1..100 (default 51)
  --policy P           block | batch | batch_flush | once (default batch_flush)
  --eviction P         lru | access_counter | clock | 2q (default lru);
                       --eviction-policy is an alias
  --chunking MODE      on | off — chunked PMA backing: split 2 MB root
                       chunks to 64 KB/4 KB under memory pressure (default on)
  --split-watermark F  free-memory fraction below which blocks split to
                       64 KB chunks (default 1/16)
  --fine-watermark F   fraction below which partially-wanted big pages
                       split to 4 KB chunks (default 1/64; <= split)
  --batch-size N       faults per driver batch (default 256)
  --thrash MODE        off | detect | pin | throttle (default off)
  --seed N             simulation seed (default 42)
  --pipelined          overlap migrations with servicing (extension)

hazard injection (all rates in [0,1), default 0 = no injection):
  --hazard-dma-fail-rate R   probability a DMA copy run fails and is retried
  --hazard-fb-corrupt-rate R probability a fault-buffer entry is corrupted
                             (dropped / duplicated / ready-stalled)
  --hazard-pma-fail-rate R   probability of a transient allocation failure
  --hazard-ac-drop-rate R    probability an access-counter notification is
                             lost
  --hazard-seed N            hazard stream seed (default: derived from --seed)
  --hazard-self MODE         abort | hang — sabotage this process before the
                             run (campaign fault-injection test hook)

driver-pass tracing (viewable in Perfetto / chrome://tracing):
  --trace-out FILE     record per-pass driver spans and write Chrome
                       trace_event JSON to FILE; also prints a per-category
                       latency summary
  --trace-categories L comma list of fetch,service,prefetch,replay,eviction,
                       recovery, or "all" (default all)
  --trace-cap N        trace ring-buffer capacity in events (default 65536;
                       oldest events are overwritten past the cap)

  --pattern            print the Fig.7-style fault scatter
  --baseline           also run the explicit-transfer baseline
  --csv                emit csv rows for the summary
  --dump-trace FILE    capture the workload's access trace to FILE and exit
  --replay-trace FILE  run a captured trace instead of a named workload
  --help               this text

exit codes: 0 ok, 1 usage or I/O error, 2 config error (including a bad
value for any knob above), 3 simulation error
)";
}

/// Parses argv; nullopt after --help or a usage error. A bad knob value
/// throws ConfigError (exit 2).
std::optional<CliOptions> parse(int argc, char** argv) {
  CliOptions o;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--help" || a == "-h") {
      print_help();
      return std::nullopt;
    } else if (a == "--pattern") {
      o.pattern = true;
    } else if (a == "--pipelined") {
      o.pipelined = true;
    } else if (a == "--csv") {
      o.csv = true;
    } else if (a == "--baseline") {
      o.explicit_baseline = true;
    } else if (const char* key = request_key_for(a)) {
      if (!(v = need_value(i))) return std::nullopt;
      campaign::set_request_key(o.req, key, v);
      o.size_set |= a == "--size-mib";
      o.gpu_set |= a == "--gpu-mib";
    } else if (a == "--full-scale") {
      o.full_scale = true;
    } else if (a == "--split-watermark") {
      if (!(v = need_value(i))) return std::nullopt;
      o.split_watermark = campaign::parse_double(a, v);
    } else if (a == "--fine-watermark") {
      if (!(v = need_value(i))) return std::nullopt;
      o.fine_watermark = campaign::parse_double(a, v);
    } else if (a == "--hazard-self") {
      if (!(v = need_value(i))) return std::nullopt;
      o.hazard_self = v;
      if (o.hazard_self != "abort" && o.hazard_self != "hang") {
        std::cerr << "bad --hazard-self: " << v << " (abort | hang)\n";
        return std::nullopt;
      }
    } else if (a == "--dump-trace") {
      if (!(v = need_value(i))) return std::nullopt;
      o.dump_trace = v;
    } else if (a == "--replay-trace") {
      if (!(v = need_value(i))) return std::nullopt;
      o.replay_trace = v;
    } else if (a == "--trace-out") {
      if (!(v = need_value(i))) return std::nullopt;
      o.trace_out = v;
    } else if (a == "--trace-categories") {
      if (!(v = need_value(i))) return std::nullopt;
      o.trace_categories = v;
    } else if (a == "--trace-cap") {
      if (!(v = need_value(i))) return std::nullopt;
      o.trace_cap = campaign::parse_u64(a, v);
      if (o.trace_cap == 0) throw ConfigError(a, "must be >= 1");
    } else {
      std::cerr << "unknown option: " << a << " (try --help)\n";
      return std::nullopt;
    }
  }
  if (o.full_scale) {
    // Titan V fidelity mode (the paper's hardware): 12 GB HBM2 and a
    // 16 GiB working set unless given explicitly; 80 SMs in to_config.
    if (!o.gpu_set) o.req.gpu_mib = 12 * 1024;
    if (!o.size_set) o.req.size_mib = 16 * 1024;
  }
  return o;
}

/// The request's SimConfig plus the settings only the CLI has.
std::optional<SimConfig> to_config(const CliOptions& o) {
  SimConfig cfg = campaign::request_sim_config(o.req);
  if (o.full_scale) cfg.gpu.num_sms = 80;
  cfg.enable_fault_log = o.pattern;
  cfg.driver.pipelined_migrations = o.pipelined;
  if (o.split_watermark) {
    cfg.driver.chunking.split_watermark = *o.split_watermark;
  }
  if (o.fine_watermark) {
    cfg.driver.chunking.fine_watermark = *o.fine_watermark;
  }

  if (!o.trace_out.empty()) {
    auto mask = parse_trace_categories(o.trace_categories);
    if (!mask) {
      std::cerr << "bad --trace-categories: " << o.trace_categories << "\n";
      return std::nullopt;
    }
    cfg.trace.enabled = true;
    cfg.trace.categories = *mask;
    cfg.trace.capacity = o.trace_cap;
  }
  return cfg;
}

/// The CLI body; throws ConfigError / SimulationError out to main, which
/// maps them to distinct exit codes.
int run_cli(int argc, char** argv) {
  auto opts = parse(argc, argv);
  if (!opts) return argc > 1 && std::string(argv[1]) == "--help" ? 0 : 1;
  auto cfg = to_config(*opts);
  if (!cfg) return 1;

  // Self-sabotage test hook: campaign fault-injection tests exec this
  // binary with --hazard-self so a worker crash / hang is *real* (an
  // actual SIGABRT, an actual watchdog kill), not a simulated one.
  if (opts->hazard_self == "abort") {
    std::abort();
  } else if (opts->hazard_self == "hang") {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
  }

  // ConfigError / SimulationError from trace parsing or workload lookup
  // propagate to main for the distinct exit codes; only plain open/write
  // failures are handled here as usage errors.
  std::unique_ptr<Workload> wl;
  if (!opts->replay_trace.empty()) {
    std::ifstream in(opts->replay_trace);
    if (!in) {
      std::cerr << "cannot open trace: " << opts->replay_trace << "\n";
      return 1;
    }
    wl = std::make_unique<TraceWorkload>(parse_trace(in),
                                         opts->replay_trace);
  } else {
    wl = campaign::request_workload(opts->req);
  }
  if (!opts->dump_trace.empty()) {
    std::ostringstream out;
    write_trace(out, capture_trace(*wl, *cfg));
    atomic_write_file(opts->dump_trace, out.str());
    std::cout << "trace written to " << opts->dump_trace << "\n";
    return 0;
  }

  Simulator sim(*cfg);
  wl->setup(sim);
  RunResult r = sim.run();

  std::cout << "workload " << wl->name() << ", "
            << format_bytes(r.total_bytes) << " on "
            << format_bytes(cfg->gpu_memory()) << " GPU ("
            << fmt(100.0 * r.oversubscription(), 4) << " %)\n";

  // The summary table is shared with the campaign's in-process worker so
  // both isolation modes commit byte-identical result payloads.
  Table summary = run_summary_table(r);
  if (opts->csv) {
    std::cout << summary.to_csv();
  }
  std::cout << summary.to_text();

  Table breakdown({"driver_category", "time", "share_pct"});
  SimDuration grand = r.profiler.grand_total();
  for (std::size_t i = 0; i < Profiler::kNumCategories; ++i) {
    auto c = static_cast<CostCategory>(i);
    if (r.profiler.total(c) == 0) continue;
    double share = grand ? 100.0 * static_cast<double>(r.profiler.total(c)) /
                               static_cast<double>(grand)
                         : 0.0;
    breakdown.add_row({std::string(to_string(c)),
                       format_duration(r.profiler.total(c)),
                       fmt(share, 3)});
  }
  std::cout << '\n' << breakdown.to_text();

  if (r.hazards_enabled) {
    Table hz = hazard_report(r);
    if (opts->csv) std::cout << hz.to_csv();
    std::cout << "\nhazard injection & recovery:\n" << hz.to_text();
  }

  if (r.stall_latency.count() > 0) {
    Table lat({"latency", "p50", "p90", "p99", "samples"});
    auto q = [](const LogHistogram& h, double p_) {
      return format_duration(static_cast<SimDuration>(h.quantile(p_)));
    };
    lat.add_row({"warp_stall", q(r.stall_latency, 0.5),
                 q(r.stall_latency, 0.9), q(r.stall_latency, 0.99),
                 fmt(r.stall_latency.count())});
    lat.add_row({"fault_queue", q(r.fault_queue_latency, 0.5),
                 q(r.fault_queue_latency, 0.9),
                 q(r.fault_queue_latency, 0.99),
                 fmt(r.fault_queue_latency.count())});
    std::cout << '\n' << lat.to_text();
  }

  if (opts->pattern) {
    PatternAnalyzer pa(sim.address_space());
    auto pts = pa.points(r.fault_log);
    std::cout << "\naccess pattern ('.' fault, '+' prefetch, 'E' evict):\n"
              << pa.ascii_scatter(pts, 110, 28);

    Timeline tl(r.fault_log, std::max<SimDuration>(r.end_time / 100, 1));
    std::cout << "\nactivity over time:\n"
              << "  faults    |" << tl.sparkline(FaultLogKind::Fault, 100)
              << "|\n"
              << "  prefetch  |" << tl.sparkline(FaultLogKind::Prefetch, 100)
              << "|\n"
              << "  evictions |" << tl.sparkline(FaultLogKind::Eviction, 100)
              << "|\n";
  }

  if (!opts->trace_out.empty() && sim.tracer() != nullptr) {
    const Tracer& tr = *sim.tracer();
    atomic_write_file(opts->trace_out,
                      [&tr](std::ostream& out) { write_chrome_trace(out, tr); });
    std::cout << "\ndriver trace: " << tr.recorded() << " events recorded, "
              << tr.dropped() << " overwritten -> " << opts->trace_out
              << "\n\n"
              << summarize_trace(tr).to_string();
  }

  if (opts->explicit_baseline) {
    auto wl2 = campaign::request_workload(opts->req);
    ExplicitResult ex = ExplicitTransfer::run(*cfg, *wl2);
    std::cout << "\nexplicit-transfer baseline: "
              << format_duration(ex.total) << " (UVM is "
              << fmt(slowdown(ex.total, r.total_kernel_time()), 3)
              << "x)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The shared exit-code matrix (core/errors.h): 0 success, 1 usage / I/O
  // problem, 2 invalid configuration, 3 simulation failure (e.g. deadlock)
  // — scripts can tell "fix your flags" apart from "the simulated system
  // wedged", and ProcessWorker inverts the same table on the other side of
  // a fork/exec.
  try {
    return run_cli(argc, argv);
  } catch (const ConfigError& e) {
    std::cerr << "config error: " << e.what() << "\n";
    return exit_code_for(FailureKind::Config);
  } catch (const SimulationError& e) {
    std::cerr << "simulation error: " << e.what() << "\n";
    return exit_code_for(FailureKind::Simulation);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return exit_code_for(FailureKind::Io);
  }
}
