// Tracer unit tests plus end-to-end trace capture: ring behaviour, category
// filtering, the Chrome trace_event exporter (golden determinism modulo the
// wall-clock stamp), and the per-category summary.
#include "sim/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>

#include "core/simulator.h"
#include "workloads/random_access.h"
#include "workloads/regular.h"

namespace uvmsim {
namespace {

TraceConfig cfg_with(std::size_t cap,
                     std::uint32_t mask = kAllTraceCategories) {
  TraceConfig c;
  c.enabled = true;
  c.capacity = cap;
  c.categories = mask;
  return c;
}

/// The wall-clock stamp is the only nondeterministic field; strip every
/// `,"wall_ns":<digits>` occurrence.
std::string strip_wall_ns(const std::string& s) {
  static const std::string kKey = ",\"wall_ns\":";
  std::string out;
  out.reserve(s.size());
  std::size_t pos = 0;
  for (;;) {
    std::size_t hit = s.find(kKey, pos);
    if (hit == std::string::npos) break;
    out.append(s, pos, hit - pos);
    pos = hit + kKey.size();
    while (pos < s.size() &&
           std::isdigit(static_cast<unsigned char>(s[pos])) != 0) {
      ++pos;
    }
  }
  out.append(s, pos, std::string::npos);
  return out;
}

TEST(TraceCategoryNames, RoundTrip) {
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(TraceCategory::kCount); ++i) {
    auto name = to_string(static_cast<TraceCategory>(i));
    auto mask = parse_trace_categories(name);
    ASSERT_TRUE(mask.has_value()) << name;
    EXPECT_EQ(*mask, 1u << i);
  }
}

TEST(TraceCategoryParse, ListsAllAndErrors) {
  EXPECT_EQ(parse_trace_categories("all"), kAllTraceCategories);
  EXPECT_EQ(parse_trace_categories(""), kAllTraceCategories);
  auto m = parse_trace_categories("fetch,eviction");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, (1u << static_cast<std::uint32_t>(TraceCategory::Fetch)) |
                    (1u << static_cast<std::uint32_t>(TraceCategory::Eviction)));
  EXPECT_FALSE(parse_trace_categories("fetch,bogus").has_value());
  EXPECT_FALSE(parse_trace_categories("FETCH").has_value());
}

TEST(Tracer, RecordsSpansAndInstants) {
  Tracer tr(cfg_with(16));
  tr.span(TraceCategory::Service, "s", 100, 250, 7, "pages", 3);
  tr.instant(TraceCategory::Replay, "i", 300, 1);
  auto evs = tr.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_STREQ(evs[0].name, "s");
  EXPECT_FALSE(evs[0].instant);
  EXPECT_EQ(evs[0].ts, 100u);
  EXPECT_EQ(evs[0].dur, 150u);
  EXPECT_EQ(evs[0].id, 7u);
  EXPECT_STREQ(evs[0].arg_names[0], "pages");
  EXPECT_EQ(evs[0].args[0], 3u);
  EXPECT_TRUE(evs[1].instant);
  EXPECT_EQ(evs[1].dur, 0u);
  EXPECT_EQ(tr.recorded(), 2u);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(Tracer, RingWrapKeepsNewestAndCountsDropped) {
  Tracer tr(cfg_with(4));
  for (SimTime t = 0; t < 10; ++t) {
    tr.span(TraceCategory::Fetch, "f", t, t + 1, t);
  }
  EXPECT_EQ(tr.recorded(), 10u);
  EXPECT_EQ(tr.dropped(), 6u);
  auto evs = tr.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest first: ids 6, 7, 8, 9 survive.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(evs[i].id, 6u + i);
}

TEST(Tracer, CategoryFilterRejectsAtRecordTime) {
  Tracer tr(cfg_with(
      16, 1u << static_cast<std::uint32_t>(TraceCategory::Eviction)));
  EXPECT_TRUE(tr.accepts(TraceCategory::Eviction));
  EXPECT_FALSE(tr.accepts(TraceCategory::Fetch));
  tr.span(TraceCategory::Fetch, "f", 0, 1);
  tr.span(TraceCategory::Eviction, "e", 0, 1);
  auto evs = tr.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_STREQ(evs[0].name, "e");
}

TEST(Tracer, ZeroCapacityClampedToOne) {
  Tracer tr(cfg_with(0));
  tr.instant(TraceCategory::Fetch, "a", 0);
  tr.instant(TraceCategory::Fetch, "b", 1);
  auto evs = tr.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_STREQ(evs[0].name, "b");
}

TEST(ChromeTrace, EmitsWellFormedEvents) {
  Tracer tr(cfg_with(16));
  tr.span(TraceCategory::Service, "svc", 1500, 4750, 9, "pages", 2);
  tr.instant(TraceCategory::Replay, "rep", 5000);
  std::ostringstream os;
  write_chrome_trace(os, tr);
  std::string s = os.str();
  // Structural sanity: our strings never contain braces/brackets, so raw
  // counts must balance (full parse validation lives in scripts/ci.sh).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['),
            std::count(s.begin(), s.end(), ']'));
  EXPECT_NE(s.find("\"traceEvents\":["), std::string::npos);
  // Timestamps are ns rendered as fixed-point us.
  EXPECT_NE(s.find("\"name\":\"svc\",\"cat\":\"service\",\"ph\":\"X\","
                   "\"ts\":1.500,\"dur\":3.250"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("\"name\":\"rep\",\"cat\":\"replay\",\"ph\":\"i\","
                   "\"ts\":5.000,\"s\":\"t\""),
            std::string::npos)
      << s;
  // One thread-name metadata record per category.
  EXPECT_NE(s.find("\"args\":{\"name\":\"eviction\"}"), std::string::npos);
}

TEST(ChromeTrace, HostileNamesAreEscapedGolden) {
  // Event and argument names come from caller-controlled strings (range
  // labels); quotes, backslashes, and control characters must not be able
  // to break the trace file. Golden comparison of the emitted record.
  Tracer tr(cfg_with(16));
  tr.span(TraceCategory::Service, "a\"b\\c\nd\te\x01" "f", 1000, 2000, 0,
          "pg\"s", 7);
  std::ostringstream os;
  write_chrome_trace(os, tr);
  std::string s = strip_wall_ns(os.str());
  EXPECT_NE(s.find("{\"name\":\"a\\\"b\\\\c\\nd\\te\\u0001f\","
                   "\"cat\":\"service\",\"ph\":\"X\",\"ts\":1.000,"
                   "\"dur\":1.000,\"pid\":1,\"tid\":2,"
                   "\"args\":{\"pg\\\"s\":7}}"),
            std::string::npos)
      << s;
  // The raw (unescaped) name must not appear anywhere.
  EXPECT_EQ(s.find("a\"b\\c\nd"), std::string::npos) << s;
  // Escaping must not disturb numeric formatting state for later fields.
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
}

TEST(ChromeTrace, EmptyEventListIsValidJson) {
  // Regression: with no recorded events the array must not end in a
  // dangling comma after the thread-name metadata records.
  Tracer tr(cfg_with(16));
  std::ostringstream os;
  write_chrome_trace(os, tr);
  std::string s = os.str();
  EXPECT_EQ(s.find(",\n]"), std::string::npos) << s;
  EXPECT_EQ(s.find(",]"), std::string::npos) << s;
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['),
            std::count(s.begin(), s.end(), ']'));
}

TEST(TraceSummary, RollsUpPerCategoryAndName) {
  Tracer tr(cfg_with(16));
  tr.span(TraceCategory::Fetch, "f", 0, 1000);
  tr.span(TraceCategory::Fetch, "f", 0, 3000);
  tr.instant(TraceCategory::Replay, "r", 0);
  TraceSummary sum = summarize_trace(tr);
  ASSERT_EQ(sum.rows.size(), 2u);
  EXPECT_EQ(sum.rows[0].category, TraceCategory::Fetch);
  EXPECT_EQ(sum.rows[0].acc.count(), 2u);
  EXPECT_DOUBLE_EQ(sum.rows[0].acc.mean(), 2000.0);
  EXPECT_EQ(sum.rows[1].instants, 1u);
  std::string text = sum.to_string();
  EXPECT_NE(text.find("fetch"), std::string::npos);
  EXPECT_NE(text.find("2.000"), std::string::npos);  // mean in us
}

/// An oversubscribed fixed-seed run: faults, prefetch, replay, and eviction
/// all fire, so every required category appears in the trace.
SimConfig traced_cfg() {
  SimConfig cfg;
  cfg.set_gpu_memory(16ull << 20);
  cfg.enable_fault_log = false;
  cfg.trace.enabled = true;
  return cfg;
}

std::string run_and_export(const SimConfig& cfg) {
  Simulator sim(cfg);
  RandomTouch wl(24ull << 20);
  wl.setup(sim);
  sim.run();
  std::ostringstream os;
  write_chrome_trace(os, *sim.tracer());
  return os.str();
}

TEST(TraceEndToEnd, GoldenTraceIsDeterministicModuloWallClock) {
  std::string a = run_and_export(traced_cfg());
  std::string b = run_and_export(traced_cfg());
  EXPECT_NE(a, b);  // wall_ns differs between runs...
  EXPECT_EQ(strip_wall_ns(a), strip_wall_ns(b));  // ...and nothing else
}

TEST(TraceEndToEnd, AllFiveDriverCategoriesHaveSpans) {
  std::string s = run_and_export(traced_cfg());
  for (const char* cat :
       {"fetch", "service", "prefetch", "replay", "eviction"}) {
    EXPECT_NE(s.find("\"cat\":\"" + std::string(cat) + "\",\"ph\":\"X\""),
              std::string::npos)
        << "missing spans for category " << cat;
  }
}

/// Counts the recorded events named `name` (spans or instants per `instant`).
std::size_t count_events(const Tracer& tr, const std::string& name,
                         bool instant) {
  auto evs = tr.events();
  return static_cast<std::size_t>(
      std::count_if(evs.begin(), evs.end(), [&](const TraceEvent& e) {
        return e.instant == instant && name == e.name;
      }));
}

TEST(TraceEndToEnd, GpuDrivenRunRecordsResolveAndResume) {
  SimConfig cfg = traced_cfg();
  cfg.driver.backend = ServicingBackendKind::GpuDriven;
  Simulator sim(cfg);
  RandomTouch wl(24ull << 20);
  wl.setup(sim);
  sim.run();
  ASSERT_NE(sim.tracer(), nullptr);
  EXPECT_GT(count_events(*sim.tracer(), "gpu.resolve", false), 0u);
  EXPECT_GT(count_events(*sim.tracer(), "gpu.resume", true), 0u);
  // No batch machinery on this path.
  EXPECT_EQ(count_events(*sim.tracer(), "driver.fetch", false), 0u);
}

TEST(TraceEndToEnd, GpuDrivenDegradationIsTraced) {
  // GpuDriven.DegradesToRemoteMappingWithoutVictims's setup: 2 MB of demand
  // on a 1 MB GPU leaves no eviction victim for the overflow pages.
  SimConfig cfg = traced_cfg();
  cfg.set_gpu_memory(1ull << 20);
  cfg.driver.backend = ServicingBackendKind::GpuDriven;
  Simulator sim(cfg);
  RegularTouch wl(2ull << 20);
  wl.setup(sim);
  sim.run();
  ASSERT_NE(sim.tracer(), nullptr);
  EXPECT_GT(count_events(*sim.tracer(), "gpu.degraded_remote", false), 0u);
}

TEST(TraceEndToEnd, GpuDrivenPmaBackoffIsTraced) {
  // Transient PMA failures on the GPU-driven path back off exactly like the
  // driver path's, and the backoff shows up as the same recovery span.
  SimConfig cfg = traced_cfg();
  cfg.driver.backend = ServicingBackendKind::GpuDriven;
  cfg.hazards.pma_fail_rate = 0.1;
  Simulator sim(cfg);
  RandomTouch wl(24ull << 20);
  wl.setup(sim);
  sim.run();
  ASSERT_NE(sim.tracer(), nullptr);
  EXPECT_GT(sim.driver().counters().pma_alloc_retries, 0u);
  EXPECT_GT(count_events(*sim.tracer(), "recover.pma_backoff", false), 0u);
}

TEST(TraceEndToEnd, DisabledConfigBuildsNoTracer) {
  SimConfig cfg = traced_cfg();
  cfg.trace.enabled = false;
  Simulator sim(cfg);
  EXPECT_EQ(sim.tracer(), nullptr);
}

TEST(TraceEndToEnd, CategoryMaskLimitsRun) {
  SimConfig cfg = traced_cfg();
  cfg.trace.categories =
      1u << static_cast<std::uint32_t>(TraceCategory::Eviction);
  std::string s = run_and_export(cfg);
  EXPECT_NE(s.find("\"cat\":\"eviction\""), std::string::npos);
  EXPECT_EQ(s.find("\"cat\":\"service\",\"ph\":\"X\""), std::string::npos);
}

}  // namespace
}  // namespace uvmsim
