// Policy crossover (PR 10): the learned Markov prefetcher vs the density
// tree vs prefetch-off, swept over oversubscription and access pattern, plus
// an eviction-policy panel (LRU / CLOCK / 2Q) at the crossover point.
//
// The economics the sweep demonstrates, pattern by pattern:
//  * regular (dense sequential): the tree's density heuristic is at home —
//    speculation is always right — while the learned predictor wins back
//    most of prefetch-off's fault stalls from the block-delta history;
//  * strided (64 KB stride, the crossover point): per-block density stays
//    far below the tree's threshold, so the tree's big-page upgrade and
//    root-granularity speculative backing are pure amplification and
//    prefetch-off beats it — the PR 5 "prefetching aggravates
//    oversubscription" result. The block-delta sequence is a constant,
//    though, so the learned predictor locks on and beats BOTH: it
//    speculates exactly the projected fault footprint at demand-chunk
//    granularity;
//  * random: no structure to learn. The predictor's mispredictions are
//    bounded by its projected-footprint shaping, so it degrades toward
//    prefetch-off instead of paying the tree's amplification.
#include <algorithm>
#include <array>
#include <sstream>

#include "bench_common.h"
#include "core/atomic_file.h"
#include "core/metrics.h"
#include "core/report.h"
#include "sweep_runner.h"
#include "uvm/driver_config.h"

namespace {

using namespace uvmsim;
using namespace uvmsim::bench;

constexpr std::array<PrefetchMode, 3> kModes = {
    PrefetchMode::Off, PrefetchMode::Tree, PrefetchMode::Markov};

}  // namespace

int main() {
  SimConfig cfg = base_config();
  // Bounded machine: everything below is a ratio, and the 2x-oversubscribed
  // random point dominates runtime on a bigger GPU.
  cfg.set_gpu_memory(std::min<std::uint64_t>(gpu_bytes(), 64ull << 20));
  cfg.enable_fault_log = false;

  const std::array<std::string, 3> patterns = {"regular", "strided", "random"};

  struct Point {
    double ratio;    ///< footprint (range bytes) / GPU memory
    std::string wl;
    PrefetchMode mode;
  };
  const std::vector<double> ratios = fast_mode()
                                         ? std::vector<double>{0.5, 2.0}
                                         : std::vector<double>{0.5, 1.2, 2.0};
  std::vector<Point> points;
  for (double ratio : ratios) {
    for (const std::string& wl : patterns) {
      for (PrefetchMode m : kModes) points.push_back({ratio, wl, m});
    }
  }

  SweepRunner runner;
  auto results = runner.sweep(points, [&cfg](const Point& p) {
    SimConfig c = cfg;
    c.driver.prefetch = p.mode;
    auto target = static_cast<std::uint64_t>(
        p.ratio * static_cast<double>(cfg.gpu_memory()));
    return run_workload(c, p.wl, target);
  });

  Table t({"oversub", "pattern", "prefetch", "kernel_time", "faults",
           "prefetched_pages", "markov_blocks", "evictions"});
  // Kernel time at the deepest oversubscribed point, [pattern][mode] — the
  // crossover the shape checks gate.
  SimDuration deep[3][3] = {};
  std::uint64_t deep_markov_blocks[3] = {};
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const RunResult& r = results[i];
    if (p.ratio == ratios.back()) {
      const auto wi = static_cast<std::size_t>(
          std::find(patterns.begin(), patterns.end(), p.wl) -
          patterns.begin());
      const auto mi = static_cast<std::size_t>(
          std::find(kModes.begin(), kModes.end(), p.mode) - kModes.begin());
      deep[wi][mi] = r.total_kernel_time();
      if (p.mode == PrefetchMode::Markov) {
        deep_markov_blocks[wi] = r.counters.markov_blocks_prefetched;
      }
    }
    t.add_row({fmt(100.0 * p.ratio, 3) + "%", p.wl, to_string(p.mode),
               format_duration(r.total_kernel_time()),
               fmt(r.counters.faults_fetched), fmt(r.counters.pages_prefetched),
               fmt(r.counters.markov_blocks_prefetched),
               fmt(r.counters.evictions)});
  }
  t.print("Policy crossover — prefetch policy x oversubscription x pattern");

  const std::size_t off = 0, tree = 1, markov = 2;  // kModes order
  // patterns[] indices: 0 = regular, 1 = strided, 2 = random.
  shape_check(
      "strided oversubscription reproduces PR 5: the tree's amplification "
      "makes prefetch-off the better static choice",
      deep[1][off] < deep[1][tree]);
  shape_check(
      "the learned predictor beats BOTH at the same point: projected-"
      "footprint speculation without the tree's amplification",
      deep[1][markov] < deep[1][off] && deep[1][markov] < deep[1][tree]);
  shape_check("the learned predictor actually speculated on the strided sweep",
              deep_markov_blocks[1] > 0);
  shape_check(
      "dense sequential access: learned speculation also beats prefetch-off "
      "(the tree's home turf stays the tree's)",
      deep[0][markov] < deep[0][off]);
  shape_check(
      "random access: projected-footprint misspeculation stays cheaper than "
      "the tree's amplification",
      deep[2][markov] < deep[2][tree]);

  // --- eviction-policy panel at the crossover point -----------------------
  // Victim choice shifts *which* chunks leave, not *how many must*: on the
  // capacity-driven strided sweep all three policies evict within a narrow
  // band of each other.
  struct EvPoint {
    EvictionPolicyKind kind;
  };
  std::vector<EvPoint> ev_points = {{EvictionPolicyKind::Lru},
                                    {EvictionPolicyKind::Clock},
                                    {EvictionPolicyKind::TwoQ}};
  const auto crossover_target = static_cast<std::uint64_t>(
      ratios.back() * static_cast<double>(cfg.gpu_memory()));
  auto ev_results = runner.sweep(ev_points, [&](const EvPoint& p) {
    SimConfig c = cfg;
    c.driver.prefetch = PrefetchMode::Markov;
    c.driver.eviction_policy = p.kind;
    return run_workload(c, "strided", crossover_target);
  });
  Table et({"eviction", "kernel_time", "faults", "evictions", "pages_evicted"});
  std::uint64_t ev_min = ~0ull, ev_max = 0;
  for (std::size_t i = 0; i < ev_points.size(); ++i) {
    const RunResult& r = ev_results[i];
    ev_min = std::min(ev_min, r.counters.pages_evicted);
    ev_max = std::max(ev_max, r.counters.pages_evicted);
    et.add_row({to_string(ev_points[i].kind),
                format_duration(r.total_kernel_time()),
                fmt(r.counters.faults_fetched), fmt(r.counters.evictions),
                fmt(r.counters.pages_evicted)});
  }
  et.print("Eviction panel — markov prefetch, strided, deepest oversub");
  shape_check(
      "eviction choice shifts victim order, not capacity: lru/clock/2q "
      "evicted-page counts agree within 25%",
      ev_max > 0 && (ev_max - ev_min) * 4 <= ev_max);

  const auto ratio_of = [](SimDuration num, SimDuration den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"fig_policy_crossover\",\n"
       << "  \"gpu_mib\": " << (cfg.gpu_memory() >> 20) << ",\n"
       << "  \"oversub\": " << fmt(ratios.back(), 2) << ",\n"
       << "  \"strided_kernel_ns_off\": " << deep[1][off] << ",\n"
       << "  \"strided_kernel_ns_tree\": " << deep[1][tree] << ",\n"
       << "  \"strided_kernel_ns_markov\": " << deep[1][markov] << ",\n"
       << "  \"regular_kernel_ns_off\": " << deep[0][off] << ",\n"
       << "  \"regular_kernel_ns_tree\": " << deep[0][tree] << ",\n"
       << "  \"regular_kernel_ns_markov\": " << deep[0][markov] << ",\n"
       << "  \"random_kernel_ns_off\": " << deep[2][off] << ",\n"
       << "  \"random_kernel_ns_tree\": " << deep[2][tree] << ",\n"
       << "  \"random_kernel_ns_markov\": " << deep[2][markov] << ",\n"
       << "  \"markov_speedup_vs_off\": "
       << fmt(ratio_of(deep[1][off], deep[1][markov]), 4) << ",\n"
       << "  \"markov_speedup_vs_tree\": "
       << fmt(ratio_of(deep[1][tree], deep[1][markov]), 4) << ",\n"
       << "  \"markov_blocks_strided\": " << deep_markov_blocks[1] << ",\n"
       << "  \"markov_blocks_random\": " << deep_markov_blocks[2] << "\n"
       << "}\n";
  const char* out = std::getenv("UVMSIM_BENCH_JSON");
  if (out != nullptr && *out != '\0') {
    atomic_write_file(out, json.str());
    std::cout << "json -> " << out << "\n";
  } else {
    std::cout << json.str();
  }
  return 0;
}
