// Access-pattern tracing: run any workload with the fault log enabled and
// render the driver's view of it — the Fig. 7 scatter — plus a CSV trace
// suitable for external plotting.
//
//   ./build/examples/pattern_trace [workload] [size_mib] [--prefetch]
#include <cstring>
#include <iostream>
#include <string>

#include "core/metrics.h"
#include "core/pattern_analyzer.h"
#include "core/report.h"
#include "core/simulator.h"
#include "workloads/registry.h"

int main(int argc, char** argv) {
  using namespace uvmsim;

  const std::string name = argc > 1 ? argv[1] : "cusparse";
  const std::uint64_t bytes = (argc > 2 ? std::stoull(argv[2]) : 32) << 20;
  bool prefetch = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--prefetch") == 0) prefetch = true;
  }

  SimConfig cfg;
  cfg.set_gpu_memory(128ull << 20);
  cfg.enable_fault_log = true;
  cfg.driver.prefetch = prefetch ? PrefetchMode::Tree : PrefetchMode::Off;

  Simulator sim(cfg);
  auto wl = make_workload(name, bytes);
  wl->setup(sim);
  RunResult r = sim.run();

  PatternAnalyzer pa(sim.address_space());
  unsigned mask = 1u << static_cast<int>(FaultLogKind::Fault);
  if (prefetch) mask |= 1u << static_cast<int>(FaultLogKind::Prefetch);
  auto pts = pa.points(r.fault_log, mask);

  std::cout << "access pattern: " << name << ", " << format_bytes(bytes)
            << ", prefetch " << (prefetch ? "on" : "off") << "\n";
  std::cout << "allocations (bottom to top):";
  for (const auto& rg : sim.address_space().ranges()) {
    std::cout << ' ' << rg.name;
  }
  std::cout << "\n\n" << pa.ascii_scatter(pts, 110, 30) << "\n";
  std::cout << "faults serviced: " << r.counters.faults_serviced
            << ", prefetched: " << r.counters.pages_prefetched
            << ", kernel time: " << format_duration(r.total_kernel_time())
            << "\n\n";

  std::cout << "csv,order,adj_page,kind,range\n";
  std::size_t stride = pts.size() > 2000 ? pts.size() / 2000 : 1;
  for (std::size_t i = 0; i < pts.size(); i += stride) {
    std::cout << "csv," << pts[i].order << ',' << pts[i].adj_page << ','
              << static_cast<int>(pts[i].kind) << ',' << pts[i].range << "\n";
  }
  return 0;
}
