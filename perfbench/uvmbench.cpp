// uvmsim benchmark harness.
//
//   uvmbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--scale K] [--expect-digest HEX] [--commit ID]
//
// A closed loop with one client: it builds one simulation, runs it to the
// end, and only then starts the next, all on one thread, until --seconds of
// host time have passed (at least two simulations). Every simulation of a
// run uses the same inputs, so every one must produce the same result
// digest; with --expect-digest it must also equal that golden.
//
// --trace 0 times Simulator::run() untouched and reports the end-to-end
// metrics. --trace 1 alternates an untouched simulation with a traced one,
// in which the harness drives EventQueue::step() itself and charges each
// step's host time to the layer whose public state the step moved. The
// library carries no instrumentation for this, and the traced result must
// equal the untouched one.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics ({name: {value, unit}}). Exit code 0 when every simulation was
// correct, 1 on any failure, 2 on bad usage or a build unfit for timing.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/simulator.h"
#include "workloads/registry.h"

namespace {

using namespace uvmsim;
using Clock = std::chrono::steady_clock;

/// Why each workload is in the suite is documented in README.md.
struct WorkloadSpec {
  const char* name;
  const char* generator;  ///< make_workload() name
  std::uint64_t size_mib;
  std::uint64_t gpu_mib;
  ServicingBackendKind backend;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"random-oversub", "random", 1536, 1152,
     ServicingBackendKind::DriverCentric},
    {"random-oversub-gpudriven", "random", 1536, 1152,
     ServicingBackendKind::GpuDriven},
    {"sgemm-resident", "sgemm", 288, 384, ServicingBackendKind::DriverCentric},
};

struct Options {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t scale = 1;  ///< divides both sizes (smoke tests)
  std::optional<std::uint64_t> expect_digest;
  std::string commit = "unknown";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "uvmbench: " << msg << "\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v,
                        int base = 10) {
  std::size_t used = 0;
  std::uint64_t out = 0;
  try {
    out = std::stoull(v, &used, base);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size() || v[0] == '-') {
    usage_error(flag + " expects a non-negative integer, got '" + v + "'");
  }
  return out;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      for (const auto& w : kWorkloads) {
        if (v == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) usage_error("unknown workload '" + v + "'");
    } else if (a == "--seed") {
      o.seed = parse_u64(a, v);
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(a, v));
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage_error("--trace expects 0 or 1");
      o.trace = v == "1";
    } else if (a == "--scale") {
      o.scale = parse_u64(a, v);
      if (o.scale == 0 || o.scale > 1024) usage_error("--scale must be 1..1024");
    } else if (a == "--expect-digest") {
      o.expect_digest = parse_u64(a, v, 16);
    } else if (a == "--commit") {
      o.commit = v;
    } else {
      usage_error("unknown option " + a);
    }
  }
  if (o.workload == nullptr) usage_error("--workload is required");
  return o;
}

/// Timings from a binary with assertions, coverage or sanitizers would make
/// a false baseline; returns why this binary is such a build, or "".
std::string unfit_for_timing() {
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "built with a sanitizer";
#endif
#endif
#ifndef __OPTIMIZE__
  return "built without optimisation";
#endif
  const std::string_view flags = UVMBENCH_CXX_FLAGS;
  for (std::string_view bad :
       {"--coverage", "-fprofile-arcs", "-ftest-coverage", "-fsanitize"}) {
    if (flags.find(bad) != std::string_view::npos) {
      return "compiled with " + std::string(bad);
    }
  }
  return "";
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort: timing only
}

double max_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Every digit the double holds; integers print without a fraction.
std::string all_digits(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Canonical text of a run's deterministic result. Its FNV-1a hash is the
/// digest that goldens pin. It covers everything the simulated program
/// reports and nothing the host measures: no host times, no servicing-lane
/// counters (output-neutral by contract), no event count (an event-queue
/// optimisation may change it without changing the simulated result).
class Record {
 public:
  void add(std::string_view key, std::uint64_t v) {
    text_ += key;
    text_ += '=';
    text_ += std::to_string(v);
    text_ += '\n';
  }
  void add(std::string_view key, double v) { add(key, all_digits(v)); }
  void add(std::string_view key, std::string_view v) {
    text_ += key;
    text_ += '=';
    text_ += v;
    text_ += '\n';
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char ch : text_) {
      h ^= ch;
      h *= 0x100000001b3ULL;
    }
    return h;
  }

 private:
  std::string text_;
};

/// GPU-side counts that RunResult does not carry, read before the simulator
/// is destroyed.
struct EngineCounts {
  std::uint64_t faults_coalesced = 0;
  std::uint64_t faults_throttled = 0;
  std::uint64_t remote_accesses = 0;
  std::uint64_t events = 0;
};

Record make_record(const RunResult& r, const EngineCounts& e) {
  Record rec;
  rec.add("end_time", static_cast<std::uint64_t>(r.end_time));
  for (const KernelStats& k : r.kernels) {
    rec.add("kernel", k.name);
    rec.add("k.stream", static_cast<std::uint64_t>(k.stream));
    rec.add("k.launched_at", static_cast<std::uint64_t>(k.launched_at));
    rec.add("k.completed_at", static_cast<std::uint64_t>(k.completed_at));
    rec.add("k.faults_raised", k.faults_raised);
    rec.add("k.page_touches", k.page_touches);
    rec.add("k.stall_ns", k.stall_ns);
    rec.add("k.stall_episodes", k.stall_episodes);
    rec.add("k.replays_seen", k.replays_seen);
    rec.add("k.work_units", k.work_units);
  }
  const DriverCounters& c = r.counters;
#define UVMBENCH_COUNTER(f) rec.add("counters." #f, c.f)
  UVMBENCH_COUNTER(passes);
  UVMBENCH_COUNTER(batches);
  UVMBENCH_COUNTER(wakeups);
  UVMBENCH_COUNTER(faults_fetched);
  UVMBENCH_COUNTER(faults_serviced);
  UVMBENCH_COUNTER(duplicate_faults);
  UVMBENCH_COUNTER(stale_faults);
  UVMBENCH_COUNTER(polls);
  UVMBENCH_COUNTER(queue_latency_clamped);
  UVMBENCH_COUNTER(blocks_serviced);
  UVMBENCH_COUNTER(pages_migrated_h2d);
  UVMBENCH_COUNTER(pages_zeroed);
  UVMBENCH_COUNTER(pages_prefetched);
  UVMBENCH_COUNTER(replays_issued);
  UVMBENCH_COUNTER(buffer_flushes);
  UVMBENCH_COUNTER(flushed_entries);
  UVMBENCH_COUNTER(evictions);
  UVMBENCH_COUNTER(pages_evicted);
  UVMBENCH_COUNTER(prefetched_evicted_unused);
  UVMBENCH_COUNTER(service_restarts);
  UVMBENCH_COUNTER(access_notifications);
  UVMBENCH_COUNTER(pages_remote_mapped);
  UVMBENCH_COUNTER(pages_duplicated);
  UVMBENCH_COUNTER(writebacks_avoided);
  UVMBENCH_COUNTER(cpu_faults_serviced);
  UVMBENCH_COUNTER(prefetch_async_pages);
  UVMBENCH_COUNTER(base_page_fill_pages);
  UVMBENCH_COUNTER(counter_promoted_pages);
  UVMBENCH_COUNTER(blocks_split);
  UVMBENCH_COUNTER(subchunk_allocs);
  UVMBENCH_COUNTER(partial_evictions);
  UVMBENCH_COUNTER(chunks_evicted);
  UVMBENCH_COUNTER(blocks_coalesced);
  UVMBENCH_COUNTER(markov_observes);
  UVMBENCH_COUNTER(markov_predictions);
  UVMBENCH_COUNTER(markov_blocks_prefetched);
  UVMBENCH_COUNTER(thrash_pinned_pages);
  UVMBENCH_COUNTER(thrash_throttles);
  UVMBENCH_COUNTER(gpu_resolved_faults);
  UVMBENCH_COUNTER(gpu_queue_stalls);
  UVMBENCH_COUNTER(gpu_queue_stall_ns);
  UVMBENCH_COUNTER(gpu_page_fetches);
  UVMBENCH_COUNTER(gpu_remote_fallback_pages);
  UVMBENCH_COUNTER(dma_retries);
  UVMBENCH_COUNTER(dma_runs_retried);
  UVMBENCH_COUNTER(dma_engine_resets);
  UVMBENCH_COUNTER(pma_alloc_retries);
  UVMBENCH_COUNTER(watchdog_rescues);
  UVMBENCH_COUNTER(replay_storms);
  UVMBENCH_COUNTER(storm_flushes);
  UVMBENCH_COUNTER(degraded_remote_pages);
  UVMBENCH_COUNTER(eviction_victim_unavailable);
#undef UVMBENCH_COUNTER
  for (std::size_t i = 0; i < Profiler::kNumCategories; ++i) {
    const auto cat = static_cast<CostCategory>(i);
    const std::string key = "profiler." + std::string(to_string(cat));
    rec.add(key + ".total", static_cast<std::uint64_t>(r.profiler.total(cat)));
    rec.add(key + ".count", r.profiler.count(cat));
  }
  rec.add("fault_log", static_cast<std::uint64_t>(r.fault_log.size()));
  rec.add("bytes_h2d", r.bytes_h2d);
  rec.add("bytes_d2h", r.bytes_d2h);
  rec.add("bytes_zero_copy", r.bytes_zero_copy);
  rec.add("transfers_h2d", r.transfers_h2d);
  rec.add("transfers_d2h", r.transfers_d2h);
  rec.add("dma_copy_ops", r.dma_copy_ops);
  rec.add("buffer_pushed", r.buffer_pushed);
  rec.add("buffer_dropped", r.buffer_dropped);
  rec.add("buffer_flushed", r.buffer_flushed);
  rec.add("buffer_max_occupancy", r.buffer_max_occupancy);
  rec.add("pma_rm_calls", r.pma_rm_calls);
  rec.add("total_pages", r.total_pages);
  rec.add("total_bytes", r.total_bytes);
  rec.add("gpu_capacity_bytes", r.gpu_capacity_bytes);
  rec.add("resident_pages_at_end", r.resident_pages_at_end);
  rec.add("wasted_prefetch_at_end", r.wasted_prefetch_at_end);
  rec.add("hazards_enabled", static_cast<std::uint64_t>(r.hazards_enabled));
  rec.add("dma_failed_runs", r.dma_failed_runs);
  rec.add("pma_failed_rm_calls", r.pma_failed_rm_calls);
  rec.add("utlb_hits", r.utlb_hits);
  rec.add("utlb_misses", r.utlb_misses);
  rec.add("faults_coalesced", e.faults_coalesced);
  rec.add("faults_throttled", e.faults_throttled);
  rec.add("remote_accesses", e.remote_accesses);
  rec.add("stall_latency", r.stall_latency.to_string());
  rec.add("fault_queue_latency", r.fault_queue_latency.to_string());
  return rec;
}

/// Laws every correct result obeys, whatever the seed.
std::string law_violation(const RunResult& r) {
  const DriverCounters& c = r.counters;
  if (r.kernels.empty()) return "no kernel ran";
  if (r.end_time <= 0) return "simulated time did not advance";
  std::uint64_t touches = 0;
  for (const KernelStats& k : r.kernels) touches += k.page_touches;
  if (touches < r.total_pages) return "fewer page touches than pages";
  if (c.faults_serviced > c.faults_fetched) return "serviced more than fetched";
  if (r.resident_pages_at_end * kPageSize > r.gpu_capacity_bytes) {
    return "more resident pages than GPU memory";
  }
  return "";
}

/// Host time charged to each layer by the traced run, plus how many steps.
struct Split {
  double uvm_s = 0, gpu_s = 0, other_s = 0;
  std::uint64_t uvm_steps = 0, gpu_steps = 0, other_steps = 0;
};

struct Rep {
  bool traced = false;
  bool ok = false;
  std::string error;
  std::uint64_t digest = 0;
  EngineCounts engine;
  double construct_s = 0, build_s = 0, run_s = 0, run_cpu_s = 0;
  double snapshot_s = 0;  ///< traced: the final run() after the loop drains
  Split split;
};

/// Steps the event queue to empty, charging each step to the first layer
/// whose public state it moved: uvm (driver profiler, GPU-resolved faults),
/// else gpu (µTLB lookups), else sim.other. EventQueue::run() is
/// exactly this loop without the clocks, so the result is unchanged.
Split step_traced(Simulator& sim) {
  EventQueue& eq = sim.event_queue();
  const Driver& drv = sim.driver();
  const GpuEngine& gpu = sim.gpu();
  Split s;
  std::int64_t uvm_ns = 0, gpu_ns = 0, other_ns = 0;
  for (;;) {
    const SimDuration prof = drv.profiler().grand_total();
    const std::uint64_t resolved = drv.counters().gpu_resolved_faults;
    const std::uint64_t lookups = gpu.utlb_hits() + gpu.utlb_misses();
    const auto t0 = Clock::now();
    if (!eq.step()) break;
    const std::int64_t ns = (Clock::now() - t0).count();
    // Not counters().wakeups: a GPU step that raises a fault interrupt bumps
    // it synchronously, which would charge warp stepping to uvm. The wake
    // event's pass moves the profiler or the resolved count itself.
    if (drv.profiler().grand_total() != prof ||
        drv.counters().gpu_resolved_faults != resolved) {
      uvm_ns += ns;
      ++s.uvm_steps;
    } else if (gpu.utlb_hits() + gpu.utlb_misses() != lookups) {
      gpu_ns += ns;
      ++s.gpu_steps;
    } else {
      other_ns += ns;
      ++s.other_steps;
    }
  }
  s.uvm_s = static_cast<double>(uvm_ns) * 1e-9;
  s.gpu_s = static_cast<double>(gpu_ns) * 1e-9;
  s.other_s = static_cast<double>(other_ns) * 1e-9;
  return s;
}

/// One simulation from construction to result. `first` receives the result
/// of the first successful simulation of the run (its counts are reported).
Rep run_one(const Options& o, bool traced, std::optional<RunResult>& first) {
  const WorkloadSpec& w = *o.workload;
  SimConfig cfg;
  cfg.seed = o.seed;
  cfg.set_gpu_memory((w.gpu_mib << 20) / o.scale);
  cfg.driver.backend = w.backend;
  // As uvmsim_cli runs without --pattern: the per-fault log holds millions
  // of entries on the random pair and would dominate memory and run time.
  cfg.enable_fault_log = false;

  Rep rep;
  rep.traced = traced;
  try {
    const auto t0 = Clock::now();
    Simulator sim(cfg);
    rep.construct_s = seconds_since(t0);

    const auto t1 = Clock::now();
    auto wl = make_workload(w.generator, (w.size_mib << 20) / o.scale);
    wl->setup(sim);
    rep.build_s = seconds_since(t1);

    const double cpu0 = process_cpu_s();
    const auto t2 = Clock::now();
    RunResult r;
    if (traced) {
      rep.split = step_traced(sim);
      const auto t3 = Clock::now();
      r = sim.run();
      rep.snapshot_s = seconds_since(t3);
    } else {
      r = sim.run();
    }
    rep.run_s = seconds_since(t2);
    rep.run_cpu_s = process_cpu_s() - cpu0;

    EngineCounts& e = rep.engine;
    e.faults_coalesced = sim.gpu().faults_coalesced();
    e.faults_throttled = sim.gpu().faults_throttled();
    e.remote_accesses = sim.gpu().remote_accesses();
    e.events = sim.event_queue().executed_events();
    rep.digest = make_record(r, e).digest();
    rep.error = law_violation(r);
    rep.ok = rep.error.empty();
    if (rep.ok && !first) first = std::move(r);
  } catch (const std::exception& ex) {
    rep.error = ex.what();
  }
  return rep;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Metrics in print order, each a name, a value and a unit.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), value, std::move(unit)});
  }
  void add(std::string name, std::uint64_t value, std::string unit) {
    add(std::move(name), static_cast<double>(value), std::move(unit));
  }

  void print_table(std::ostream& out) const {
    for (const auto& m : rows_) {
      out << "metric " << m.name << " " << all_digits(m.value) << " " << m.unit
          << "\n";
    }
  }
  [[nodiscard]] std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) s += ", ";
      s += "\"" + rows_[i].name + "\": {\"value\": " + all_digits(rows_[i].value) +
           ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer metrics: host split medians from the traced simulations,
/// exact counts from the result.
void add_layer_metrics(Metrics& m, const std::vector<Rep>& plain,
                       const std::vector<Rep>& traced, const RunResult& r,
                       const Rep& counts) {
  auto med = [](const std::vector<Rep>& reps, auto field) {
    std::vector<double> v;
    for (const Rep& rep : reps) {
      if (rep.ok) v.push_back(field(rep));
    }
    return median(std::move(v));
  };
  const double build = med(traced, [](const Rep& x) { return x.build_s; });
  const double construct =
      med(traced, [](const Rep& x) { return x.construct_s; });
  const double snapshot =
      med(traced, [](const Rep& x) { return x.snapshot_s; });
  const double uvm_s = med(traced, [](const Rep& x) { return x.split.uvm_s; });
  const double gpu_s = med(traced, [](const Rep& x) { return x.split.gpu_s; });
  const double other_s =
      med(traced, [](const Rep& x) { return x.split.other_s; });
  const double traced_run = med(traced, [](const Rep& x) { return x.run_s; });
  const double plain_run = med(plain, [](const Rep& x) { return x.run_s; });
  const DriverCounters& c = r.counters;
  const Split& s = counts.split;

  std::uint64_t touches = 0, raised = 0;
  for (const KernelStats& k : r.kernels) {
    touches += k.page_touches;
    raised += k.faults_raised;
  }

  m.add("workloads.build_s", build, "s");
  m.add("core.construct_s", construct, "s");
  m.add("core.snapshot_s", snapshot, "s");
  m.add("core.sim_time_ms", static_cast<double>(r.end_time) * 1e-6, "ms");
  m.add("uvm.host_s", uvm_s, "s");
  m.add("uvm.steps", s.uvm_steps, "count");
  m.add("uvm.host_ns_per_fault",
        ratio(uvm_s * 1e9, static_cast<double>(c.faults_fetched)), "ns");
  m.add("gpu.host_s", gpu_s, "s");
  m.add("gpu.steps", s.gpu_steps, "count");
  m.add("gpu.host_ns_per_step",
        ratio(gpu_s * 1e9, static_cast<double>(s.gpu_steps)), "ns");
  m.add("sim.other_host_s", other_s, "s");
  m.add("sim.other_steps", s.other_steps, "count");
  m.add("sim.events", counts.engine.events, "count");
  m.add("sim.host_ns_per_event",
        ratio(plain_run * 1e9, static_cast<double>(counts.engine.events)), "ns");
  m.add("trace.overhead_pct", 100.0 * (ratio(traced_run, plain_run) - 1.0),
        "%");

  const double lookups = static_cast<double>(r.utlb_hits + r.utlb_misses);
  m.add("gpu.page_touches", touches, "count");
  m.add("gpu.utlb_hits", r.utlb_hits, "count");
  m.add("gpu.utlb_misses", r.utlb_misses, "count");
  m.add("gpu.utlb_hit_ratio", ratio(static_cast<double>(r.utlb_hits), lookups),
        "ratio");
  m.add("gpu.faults_raised", raised, "count");
  m.add("gpu.faults_coalesced", counts.engine.faults_coalesced, "count");
  m.add("gpu.faults_throttled", counts.engine.faults_throttled, "count");
  m.add("gpu.buffer_max_occupancy", r.buffer_max_occupancy, "count");
  m.add("gpu.stall_p50_us", r.stall_latency.quantile(0.5) * 1e-3, "us");

  const double fetched = static_cast<double>(c.faults_fetched);
  const double prefetched = static_cast<double>(c.pages_prefetched);
  m.add("uvm.passes", c.passes, "count");
  m.add("uvm.faults_fetched", c.faults_fetched, "count");
  m.add("uvm.faults_serviced", c.faults_serviced, "count");
  m.add("uvm.duplicate_ratio",
        ratio(static_cast<double>(c.duplicate_faults + c.stale_faults), fetched),
        "ratio");
  m.add("uvm.blocks_serviced", c.blocks_serviced, "count");
  m.add("uvm.pages_prefetched", c.pages_prefetched, "count");
  m.add("uvm.prefetch_useful_ratio",
        prefetched > 0
            ? 1.0 - static_cast<double>(c.prefetched_evicted_unused +
                                        r.wasted_prefetch_at_end) /
                        prefetched
            : 0.0,
        "ratio");
  m.add("uvm.evictions", c.evictions, "count");
  m.add("uvm.pages_evicted", c.pages_evicted, "count");
  m.add("uvm.service_restarts", c.service_restarts, "count");
  m.add("uvm.replays", c.replays_issued, "count");
  m.add("uvm.gpu_resolved_faults", c.gpu_resolved_faults, "count");
  m.add("uvm.gpu_queue_stalls", c.gpu_queue_stalls, "count");

  auto sim_ms = [&r](CostCategory cat) {
    return static_cast<double>(r.profiler.total(cat)) * 1e-6;
  };
  m.add("uvm.sim_preprocess_ms", sim_ms(CostCategory::PreProcess), "ms");
  m.add("uvm.sim_pma_alloc_ms", sim_ms(CostCategory::ServicePmaAlloc), "ms");
  m.add("uvm.sim_migrate_ms", sim_ms(CostCategory::ServiceMigrate), "ms");
  m.add("uvm.sim_map_ms", sim_ms(CostCategory::ServiceMap), "ms");
  m.add("uvm.sim_service_other_ms", sim_ms(CostCategory::ServiceOther), "ms");
  m.add("uvm.sim_replay_ms", sim_ms(CostCategory::ReplayPolicy), "ms");
  m.add("uvm.sim_eviction_ms", sim_ms(CostCategory::Eviction), "ms");

  m.add("mem.bytes_h2d", r.bytes_h2d, "bytes");
  m.add("mem.bytes_d2h", r.bytes_d2h, "bytes");
  m.add("mem.bytes_zero_copy", r.bytes_zero_copy, "bytes");
  m.add("mem.h2d_amplification",
        ratio(static_cast<double>(r.bytes_h2d),
              static_cast<double>(c.faults_serviced * kPageSize)),
        "ratio");
  m.add("mem.transfers_h2d", r.transfers_h2d, "count");
  m.add("mem.dma_copy_ops", r.dma_copy_ops, "count");
  m.add("mem.pma_rm_calls", r.pma_rm_calls, "count");
  m.add("mem.blocks_split", c.blocks_split, "count");
  m.add("mem.blocks_coalesced", c.blocks_coalesced, "count");
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  const std::string unfit = unfit_for_timing();
  if (!unfit.empty()) {
    std::cerr << "uvmbench: refusing to report timings: " << unfit << "\n";
    return 2;
  }
  const WorkloadSpec& w = *o.workload;

  std::cout << "context {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": \"" << UVMBENCH_COMPILER
            << "\", \"build_type\": \"" << UVMBENCH_BUILD_TYPE
            << "\", \"commit\": \"" << o.commit << "\"}\n";
  std::cout << "workload " << w.name << ": " << w.generator << ", "
            << (w.size_mib / static_cast<double>(o.scale)) << " MiB on a "
            << (w.gpu_mib / static_cast<double>(o.scale)) << " MiB GPU, "
            << to_string(w.backend) << " backend, seed " << o.seed
            << ", closed loop, 1 client, 1 thread, " << o.seconds << " s"
            << (o.trace ? ", traced split" : "") << "\n";

  // Closed loop: at least two rounds (so determinism is checked), then as
  // many as fit in the time budget, judged by the last round's length. In
  // traced mode each round is one untouched and one traced simulation of
  // the same inputs.
  std::vector<Rep> plain, traced;
  std::optional<RunResult> first;
  // Peak RSS of a process that has run the workload once: later
  // simulations only add allocator fragmentation, which would tie the
  // figure to how many fit in the budget.
  double peak_rss_mib = 0;
  // On a shared host one CPU can stay slowed for minutes (a busy hardware
  // sibling or neighbour), so each round runs on the next allowed CPU and
  // the run samples them all instead of wherever the scheduler settled.
  const std::vector<int> cpus = allowed_cpus();
  std::cout << "rounds rotate over " << cpus.size() << " CPUs\n";
  const auto start = Clock::now();
  for (;;) {
    if (!cpus.empty()) pin_to(cpus[plain.size() % cpus.size()]);
    const auto round = Clock::now();
    plain.push_back(run_one(o, false, first));
    if (plain.size() == 1) peak_rss_mib = max_rss_mib();
    if (o.trace) traced.push_back(run_one(o, true, first));
    if (plain.size() >= 2 &&
        seconds_since(start) + seconds_since(round) > o.seconds) {
      break;
    }
  }

  // Every simulation of the run must produce the same result: the golden
  // when one is given, else the first untouched simulation's.
  const auto ref = std::find_if(plain.begin(), plain.end(),
                                [](const Rep& x) { return x.ok; });
  const bool have_ref = ref != plain.end();
  const std::uint64_t want =
      o.expect_digest.value_or(have_ref ? ref->digest : 0);
  const std::uint64_t want_events = have_ref ? ref->engine.events : 0;
  std::uint64_t attempted = 0, failed = 0;
  for (std::vector<Rep>* reps : {&plain, &traced}) {
    for (Rep& rep : *reps) {
      ++attempted;
      if (rep.ok && rep.digest != want) {
        rep.ok = false;
        rep.error = "digest " + hex(rep.digest) + " != expected " + hex(want);
      } else if (rep.ok && rep.engine.events != want_events) {
        rep.ok = false;
        rep.error = "executed events differ between simulations";
      }
      if (!rep.ok) {
        ++failed;
        std::cerr << "uvmbench: " << (rep.traced ? "traced" : "untraced")
                  << " simulation failed: " << rep.error << "\n";
      }
    }
  }
  std::cout << "digest untraced=" << hex(plain.front().digest);
  if (o.trace) std::cout << " traced=" << hex(traced.front().digest);
  std::cout << " expected=" << hex(want)
            << (o.expect_digest ? " (golden)" : " (first simulation)") << "\n";

  Metrics m;
  if (first) {
    std::uint64_t touches = 0;
    for (const KernelStats& k : first->kernels) touches += k.page_touches;
    std::vector<double> run_s, run_cpu_s, setup_s;
    for (const Rep& rep : plain) {
      if (!rep.ok) continue;
      run_s.push_back(rep.run_s);
      run_cpu_s.push_back(rep.run_cpu_s);
      setup_s.push_back(rep.construct_s + rep.build_s);
    }
    const double error_rate =
        static_cast<double>(failed) / static_cast<double>(attempted);
    std::cout << "simulations " << attempted << " (" << plain.size()
              << " untraced, " << traced.size() << " traced), "
              << touches << " page touches each\nsamples run_s";
    for (double v : run_s) std::cout << " " << v;
    std::cout << "\nsamples setup_s";
    for (double v : setup_s) std::cout << " " << v;
    std::cout << "\n";
    if (!o.trace) {
      // Contention on a shared host only ever adds time, and it comes and
      // goes over seconds to minutes: the run's fastest simulation is the
      // steadiest estimate of what the program itself costs (README.md has
      // the spreads).
      m.add("run_s", fastest(run_s), "s");
      m.add("run_cpu_s", fastest(run_cpu_s), "s");
      m.add("setup_s", fastest(setup_s), "s");
      m.add("touches_per_s",
            ratio(static_cast<double>(touches), fastest(run_s)), "1/s");
      m.add("peak_rss_mib", peak_rss_mib, "MiB");
      // Exact or zero at a correct HEAD: reported here, kept out of the
      // timed metrics (see README.md).
      std::cout << "metric sim_time_ms "
                << static_cast<double>(first->end_time) * 1e-6 << " ms\n"
                << "metric error_rate " << error_rate << " ratio\n";
    } else {
      const Rep* counts = nullptr;
      for (const Rep& rep : traced) {
        if (rep.ok) {
          counts = &rep;
          break;
        }
      }
      if (counts != nullptr) add_layer_metrics(m, plain, traced, *first, *counts);
    }
  }
  m.print_table(std::cout);

  const bool correct = failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return correct ? 0 : 1;
}
