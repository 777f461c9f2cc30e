// Table I reproduction: total faults with prefetching disabled vs enabled,
// and the fault reduction (coverage) percentage, for all eight workloads at
// a relatively large undersubscribed size.
//
// Paper claims (§IV-C):
//  * every application sees at least 64 % fault reduction;
//  * random reaches the highest coverage (97.9 %) — scattered faults tip
//    tree subtrees early — beating regular (82.3 %);
//  * hpgmg and tealeaf sit at the bottom (64-67 %).
#include <map>

#include "bench_common.h"
#include "core/metrics.h"
#include "core/report.h"
#include "sweep_runner.h"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  const std::uint64_t target = static_cast<std::uint64_t>(
      0.6 * static_cast<double>(gpu_bytes()));

  Table t({"workload", "total_faults", "faults_w_prefetch", "reduction_pct",
           "paper_reduction_pct"});
  const std::map<std::string, double> paper = {
      {"regular", 82.27},  {"random", 97.95}, {"sgemm", 96.56},
      {"stream", 84.44},   {"cufft", 90.07},  {"tealeaf", 66.97},
      {"hpgmg", 64.06},    {"cusparse", 73.88}};

  // Only the paper's eight workloads have a Table I row; registry
  // additions (e.g. strided) are skipped.
  std::vector<std::string> names;
  for (const auto& name : workload_names()) {
    if (paper.count(name) != 0) names.push_back(name);
  }

  double min_reduction = 100.0;
  double red_regular = 0, red_random = 0;

  // One independent with/without pair per workload: run them in parallel.
  struct Row {
    std::uint64_t faults_nopf = 0;
    std::uint64_t faults_pf = 0;
  };
  SweepRunner runner;
  const std::vector<Row> rows =
      runner.sweep(names, [target](const std::string& name) {
        Row row;
        SimConfig nopf = base_config();
        nopf.driver.prefetch = PrefetchMode::Off;
        row.faults_nopf =
            run_workload(nopf, name, target).counters.faults_fetched;
        row.faults_pf =
            run_workload(base_config(), name, target).counters.faults_fetched;
        return row;
      });

  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    const Row& row = rows[i];
    double red = fault_reduction_percent(row.faults_nopf, row.faults_pf);
    min_reduction = std::min(min_reduction, red);
    if (name == "regular") red_regular = red;
    if (name == "random") red_random = red;

    t.add_row({name, fmt(row.faults_nopf), fmt(row.faults_pf), fmt(red, 4),
               fmt(paper.at(name), 4)});
  }
  t.print("Table I — application fault reduction from prefetching");

  shape_check("every workload sees substantial fault reduction (>= 50 %)",
              min_reduction >= 50.0);
  shape_check("random coverage beats regular (scattered faults tip subtrees)",
              red_random > red_regular);
  return 0;
}
