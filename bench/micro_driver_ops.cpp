// Google-benchmark micro-benchmarks for the hot driver-side data
// structures: prefetch-tree construction/expansion, fault-buffer push/pop,
// batch pre-processing, page-mask run decomposition, LRU operations, and the
// event queue.
#include <benchmark/benchmark.h>

#include "core/simulator.h"
#include "gpu/fault_buffer.h"
#include "mem/page_mask.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "uvm/eviction_lru.h"
#include "uvm/fault_batch.h"
#include "uvm/prefetch_tree.h"
#include "uvm/prefetcher.h"
#include "uvm/service.h"
#include "workloads/registry.h"

namespace {

using namespace uvmsim;

void BM_PrefetchTreeBuild(benchmark::State& state) {
  Rng rng(7);
  PageMask occupied;
  for (int i = 0; i < 200; ++i) {
    occupied.set(static_cast<std::uint32_t>(rng.next_below(kPagesPerBlock)));
  }
  for (auto _ : state) {
    PrefetchTree tree(occupied, kPagesPerBlock);
    benchmark::DoNotOptimize(tree.count(0, 0));
  }
}
BENCHMARK(BM_PrefetchTreeBuild);

void BM_PrefetchTreeExpand(benchmark::State& state) {
  Rng rng(7);
  PageMask occupied;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    occupied.set(static_cast<std::uint32_t>(rng.next_below(kPagesPerBlock)));
  }
  std::uint32_t leaf = occupied.find_next_set(0);
  for (auto _ : state) {
    PrefetchTree tree(occupied, kPagesPerBlock);
    benchmark::DoNotOptimize(tree.expand(leaf, 51));
  }
}
BENCHMARK(BM_PrefetchTreeExpand)->Arg(16)->Arg(128)->Arg(400);

void BM_FaultBufferPushPop(benchmark::State& state) {
  FaultBuffer fb(FaultBuffer::Config{});
  FaultEntry e;
  e.page = 42;
  for (auto _ : state) {
    fb.push(e, 0);
    benchmark::DoNotOptimize(fb.pop());
  }
}
BENCHMARK(BM_FaultBufferPushPop);

void BM_BatchPreprocess(benchmark::State& state) {
  CostModel cm;
  Rng rng(13);
  FaultBatch batch;  // reused across iterations, as the driver reuses it
  for (auto _ : state) {
    state.PauseTiming();
    FaultBuffer fb(FaultBuffer::Config{});
    for (int i = 0; i < 256; ++i) {
      FaultEntry e;
      e.page = rng.next_below(64 * kPagesPerBlock);
      e.block = block_of_page(e.page);
      fb.push(e, 0);
    }
    state.ResumeTiming();
    SimTime t = 1'000'000;
    Preprocessor::fetch(fb, 256, cm, t, batch);
    benchmark::DoNotOptimize(batch.bins.data());
  }
}
BENCHMARK(BM_BatchPreprocess);

void BM_PageMaskRuns(benchmark::State& state) {
  Rng rng(17);
  PageMask m;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    m.set(static_cast<std::uint32_t>(rng.next_below(kPagesPerBlock)));
  }
  for (auto _ : state) {
    const RunBytes runs = runs_to_bytes(m);
    benchmark::DoNotOptimize(runs.size());
  }
}
BENCHMARK(BM_PageMaskRuns)->Arg(8)->Arg(128)->Arg(512);

void BM_PageMaskCountRange(benchmark::State& state) {
  // Word-level popcount path; the range crosses six word boundaries.
  Rng rng(19);
  PageMask m;
  for (int i = 0; i < 256; ++i) {
    m.set(static_cast<std::uint32_t>(rng.next_below(kPagesPerBlock)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.count_range(37, 470));
  }
}
BENCHMARK(BM_PageMaskCountRange);

void BM_PageMaskSetRange(benchmark::State& state) {
  for (auto _ : state) {
    PageMask m;
    m.set_range(37, 470);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PageMaskSetRange);

void BM_PageMaskSetBitsIterate(benchmark::State& state) {
  // The allocation-free iterator that replaced set_indices() in the driver's
  // per-page loops.
  Rng rng(23);
  PageMask m;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    m.set(static_cast<std::uint32_t>(rng.next_below(kPagesPerBlock)));
  }
  for (auto _ : state) {
    std::uint32_t sum = 0;
    for (std::uint32_t i : m.set_bits()) sum += i;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_PageMaskSetBitsIterate)->Arg(8)->Arg(128)->Arg(512);

void BM_PageMaskForEachRun(benchmark::State& state) {
  // Single-pass run decomposition without materializing a vector.
  Rng rng(29);
  PageMask m;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    m.set(static_cast<std::uint32_t>(rng.next_below(kPagesPerBlock)));
  }
  for (auto _ : state) {
    std::uint64_t bytes = 0;
    m.for_each_run([&bytes](PageMask::Run r) { bytes += r.count; });
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_PageMaskForEachRun)->Arg(8)->Arg(128)->Arg(512);

void BM_LruTouchEvict(benchmark::State& state) {
  LruEviction lru;
  for (VaBlockId b = 0; b < 64; ++b) lru.on_block_allocated(b);
  std::uint64_t i = 0;
  auto any = [](VaBlockId) { return true; };
  for (auto _ : state) {
    lru.on_block_touched(i++ % 64);
    benchmark::DoNotOptimize(lru.pick_victim(any));
  }
}
BENCHMARK(BM_LruTouchEvict);

void BM_EndToEndSimulation(benchmark::State& state) {
  // Host-side throughput of the whole simulator: one small demand-paged
  // run per iteration. Reported rate = simulated faults per wall second.
  std::uint64_t faults = 0;
  for (auto _ : state) {
    SimConfig cfg;
    cfg.set_gpu_memory(32ull << 20);
    cfg.enable_fault_log = false;
    Simulator sim(cfg);
    auto wl = make_workload("regular", 4ull << 20);
    wl->setup(sim);
    RunResult r = sim.run();
    faults += r.counters.faults_fetched;
    benchmark::DoNotOptimize(r.end_time);
  }
  state.counters["faults/s"] = benchmark::Counter(
      static_cast<double>(faults), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

void BM_EndToEndOversubscribed(benchmark::State& state) {
  for (auto _ : state) {
    SimConfig cfg;
    cfg.set_gpu_memory(16ull << 20);
    cfg.enable_fault_log = false;
    Simulator sim(cfg);
    auto wl = make_workload("regular", 24ull << 20);
    wl->setup(sim);
    benchmark::DoNotOptimize(sim.run().counters.evictions);
  }
}
BENCHMARK(BM_EndToEndOversubscribed)->Unit(benchmark::kMillisecond);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    EventQueue q;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      q.schedule_at(static_cast<SimTime>(i * 7 % 991), [&sink] { ++sink; });
    }
    q.run();
    events += q.executed_events();
    benchmark::DoNotOptimize(sink);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_EventQueueSteadyState(benchmark::State& state) {
  // Warm queue, fixed population: the slab and heap vector reach capacity
  // once and every later schedule->fire reuses a slot (zero allocation).
  EventQueue q;
  std::uint64_t events = 0;
  int sink = 0;
  for (int i = 0; i < 256; ++i) {
    q.schedule_at(q.now() + 1 + static_cast<SimTime>(i % 13),
                  [&sink] { ++sink; });
  }
  q.run();
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      q.schedule_at(q.now() + 1 + static_cast<SimTime>(i % 13),
                    [&sink] { ++sink; });
    }
    q.run();
    events += 256;
    benchmark::DoNotOptimize(sink);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventQueueSteadyState);

void BM_EventQueueTypedSteps(benchmark::State& state) {
  // The simulator's event mix: nearly every event is a typed warp step,
  // with a callback (driver or dispatch event) every 50th.
  std::uint64_t events = 0;
  for (auto _ : state) {
    EventQueue q;
    std::uint64_t sink = 0;
    q.set_step_handler(
        [](void* s, std::uint32_t id) {
          *static_cast<std::uint64_t*>(s) += id;
        },
        &sink);
    for (int i = 0; i < 1000; ++i) {
      const auto delay = static_cast<SimDuration>(i * 7 % 991);
      if (i % 50 == 0) {
        q.schedule_in(delay, [&sink] { ++sink; });
      } else {
        q.schedule_step_in(delay, static_cast<std::uint32_t>(i));
      }
    }
    q.run();
    events += q.executed_events();
    benchmark::DoNotOptimize(sink);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventQueueTypedSteps);

void BM_PrefetcherComputeFast(benchmark::State& state) {
  // The driver's prefetch path on one block with scattered faults; 1 and 2
  // are the sparse bins random workloads produce.
  VaBlock blk;
  blk.range = 0;
  blk.num_pages = kPagesPerBlock;
  Rng rng(11);
  PageMask faulted;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    faulted.set(static_cast<std::uint32_t>(rng.next_below(kPagesPerBlock)));
  }
  for (auto _ : state) {
    auto res = Prefetcher::compute_fast(blk, faulted, true, 51);
    benchmark::DoNotOptimize(res.prefetch);
  }
}
BENCHMARK(BM_PrefetcherComputeFast)
    ->Arg(1)
    ->Arg(2)
    ->Arg(16)
    ->Arg(128)
    ->Arg(400);

}  // namespace

BENCHMARK_MAIN();
