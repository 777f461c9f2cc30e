#include "workloads/trace_io.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/errors.h"

namespace uvmsim {

namespace {

[[noreturn]] void parse_fail(std::size_t line_no, std::uint64_t offset,
                             const std::string& why) {
  throw ConfigError("trace line " + std::to_string(line_no),
                    why + " (byte offset " + std::to_string(offset) + ")");
}

/// Rejects binary garbage early: a valid trace line is printable ASCII
/// (plus tab). An embedded NUL or control byte means the caller handed us
/// something that is not a trace — a truncated download, an object file, a
/// gzip — and byte offsets beat stoi exceptions for diagnosing that.
bool has_binary_data(const std::string& line) {
  for (const char c : line) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 && c != '\t') return true;
    if (u == 0x7f) return true;
  }
  return false;
}

}  // namespace

void write_trace(std::ostream& os, const TraceData& trace) {
  os << "uvmsim-trace v1\n";
  for (const auto& r : trace.ranges) {
    os << "range " << r.name << ' ' << r.bytes << ' '
       << (r.host_populated ? 1 : 0) << '\n';
  }
  for (const auto& k : trace.kernels) {
    os << "kernel " << k.name << ' ' << k.work_units << '\n';
    for (const auto& warp : k.warps) {
      os << "warp\n";
      for (const auto& a : warp) {
        os << "a " << (a.write ? 1 : 0) << ' ' << a.compute_ns;
        for (const auto& [range, page] : a.pages) {
          os << ' ' << range << ':' << page;
        }
        os << '\n';
      }
    }
  }
  if (!os) throw std::runtime_error("trace write failed");
}

TraceData parse_trace(std::istream& is, const TraceLimits& limits) {
  TraceData trace;
  std::uint64_t total_bytes = 0;
  std::string line;
  std::size_t line_no = 0;
  std::uint64_t offset = 0;       // byte offset of the current line's start
  std::uint64_t next_offset = 0;
  bool header_seen = false;

  while (std::getline(is, line)) {
    ++line_no;
    offset = next_offset;
    next_offset += line.size() + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF
    if (line.size() > limits.max_line_bytes) {
      parse_fail(line_no, offset,
                 "line exceeds " + std::to_string(limits.max_line_bytes) +
                     " bytes (truncated or corrupt trace?)");
    }
    if (has_binary_data(line)) {
      parse_fail(line_no, offset, "binary data in trace");
    }
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tok;
    ls >> tok;

    if (!header_seen) {
      if (tok != "uvmsim-trace") parse_fail(line_no, offset, "missing header");
      std::string version;
      ls >> version;
      if (version != "v1") parse_fail(line_no, offset, "unsupported version");
      header_seen = true;
      continue;
    }

    if (tok == "range") {
      if (trace.ranges.size() >= limits.max_ranges) {
        parse_fail(line_no, offset,
                   "more than " + std::to_string(limits.max_ranges) +
                       " ranges");
      }
      TraceData::Range r;
      int populated = 1;
      if (!(ls >> r.name >> r.bytes >> populated)) {
        parse_fail(line_no, offset, "bad range declaration");
      }
      if (r.bytes == 0) parse_fail(line_no, offset, "zero-byte range");
      total_bytes += r.bytes;
      if (r.bytes > limits.max_total_bytes ||
          total_bytes > limits.max_total_bytes) {
        parse_fail(line_no, offset,
                   "trace declares more than " +
                       std::to_string(limits.max_total_bytes) +
                       " managed bytes");
      }
      r.host_populated = populated != 0;
      trace.ranges.push_back(std::move(r));
    } else if (tok == "kernel") {
      if (trace.kernels.size() >= limits.max_kernels) {
        parse_fail(line_no, offset,
                   "more than " + std::to_string(limits.max_kernels) +
                       " kernels");
      }
      TraceData::Kernel k;
      if (!(ls >> k.name >> k.work_units)) {
        parse_fail(line_no, offset, "bad kernel declaration");
      }
      trace.kernels.push_back(std::move(k));
    } else if (tok == "warp") {
      if (trace.kernels.empty()) {
        parse_fail(line_no, offset, "warp before kernel");
      }
      if (trace.kernels.back().warps.size() >= limits.max_warps_per_kernel) {
        parse_fail(line_no, offset,
                   "more than " +
                       std::to_string(limits.max_warps_per_kernel) +
                       " warps in one kernel");
      }
      trace.kernels.back().warps.emplace_back();
    } else if (tok == "a") {
      if (trace.kernels.empty() || trace.kernels.back().warps.empty()) {
        parse_fail(line_no, offset, "access before warp");
      }
      auto& warp = trace.kernels.back().warps.back();
      if (warp.size() >= limits.max_accesses_per_warp) {
        parse_fail(line_no, offset,
                   "more than " +
                       std::to_string(limits.max_accesses_per_warp) +
                       " accesses in one warp");
      }
      TraceData::Access a;
      int write = 0;
      if (!(ls >> write >> a.compute_ns)) {
        parse_fail(line_no, offset, "bad access header");
      }
      a.write = write != 0;
      std::string ref;
      while (ls >> ref) {
        if (a.pages.size() >= limits.max_pages_per_access) {
          parse_fail(line_no, offset,
                     "more than " +
                         std::to_string(limits.max_pages_per_access) +
                         " pages in one access");
        }
        auto colon = ref.find(':');
        if (colon == std::string::npos) {
          parse_fail(line_no, offset, "bad page ref: " + ref);
        }
        std::uint32_t range_idx = 0;
        std::uint64_t page = 0;
        try {
          range_idx =
              static_cast<std::uint32_t>(std::stoul(ref.substr(0, colon)));
          page = std::stoull(ref.substr(colon + 1));
        } catch (const std::exception&) {
          parse_fail(line_no, offset, "bad page ref: " + ref);
        }
        if (range_idx >= trace.ranges.size()) {
          parse_fail(line_no, offset, "range index out of bounds");
        }
        std::uint64_t range_pages =
            (trace.ranges[range_idx].bytes + kPageSize - 1) / kPageSize;
        if (page >= range_pages) {
          parse_fail(line_no, offset, "page offset past end of range");
        }
        a.pages.emplace_back(range_idx, page);
      }
      if (a.pages.empty()) parse_fail(line_no, offset, "access with no pages");
      warp.push_back(std::move(a));
    } else {
      parse_fail(line_no, offset, "unknown directive: " + tok);
    }
  }
  if (is.bad()) {
    throw IoError("trace read failed at byte offset " +
                  std::to_string(next_offset));
  }
  if (!header_seen) {
    throw ConfigError("trace", "empty input (no uvmsim-trace header)");
  }
  return trace;
}

TraceData capture_trace(Workload& workload, const SimConfig& cfg) {
  Simulator sim(cfg);
  workload.setup(sim);

  const AddressSpace& as = sim.address_space();
  TraceData trace;
  trace.ranges.reserve(as.num_ranges());
  for (const auto& r : as.ranges()) {
    // host_populated is recoverable from the initial residency state.
    bool populated = as.block(r.first_block).ever_populated.any();
    trace.ranges.push_back(TraceData::Range{r.name, r.bytes, populated});
  }

  ThreadBlockSpec slot;  // generated blocks are built here, one at a time
  std::vector<LanePage> lanes;
  for (const KernelSpec* spec : sim.queued_kernels()) {
    TraceData::Kernel k;
    k.name = spec->name;
    k.work_units = spec->work_units;
    for (std::uint32_t b = 0; b < spec->block_count(); ++b) {
      for (const auto& stream : spec->block(b, slot).warps) {
        std::vector<TraceData::Access> warp;
        warp.reserve(stream.size());
        for (std::size_t i = 0; i < stream.size(); ++i) {
          const AccessRecord& rec = stream.record(i);
          TraceData::Access a;
          a.write = rec.write;
          a.compute_ns = rec.compute_ns;
          for (const LanePage p : stream.pages(i, lanes)) {
            RangeId rid = as.range_of(p);
            if (rid == kInvalidRange) {
              throw std::logic_error("capture_trace: access outside ranges");
            }
            a.pages.emplace_back(rid, p - as.range(rid).first_page);
          }
          warp.push_back(std::move(a));
        }
        k.warps.push_back(std::move(warp));
      }
    }
    trace.kernels.push_back(std::move(k));
  }
  return trace;
}

TraceWorkload::TraceWorkload(TraceData trace, std::string name)
    : trace_(std::move(trace)), name_(std::move(name)) {
  if (trace_.ranges.empty()) {
    throw ConfigError("TraceWorkload", "trace has no ranges");
  }
}

void TraceWorkload::setup(Simulator& sim) {
  std::vector<VirtPage> first_pages;
  first_pages.reserve(trace_.ranges.size());
  for (const auto& r : trace_.ranges) {
    RangeId id = sim.malloc_managed(r.bytes, r.name, r.host_populated);
    first_pages.push_back(sim.address_space().range(id).first_page);
  }

  std::vector<LanePage> pages;
  for (const auto& k : trace_.kernels) {
    GridBuilder g(k.name);
    for (const auto& warp : k.warps) {
      AccessStream& s = g.new_warp();
      for (const auto& a : warp) {
        pages.clear();
        pages.reserve(a.pages.size());
        for (const auto& [range_idx, page] : a.pages) {
          pages.push_back(lane_page(first_pages[range_idx] + page));
        }
        s.add(pages, a.write, a.compute_ns);
      }
    }
    if (g.warp_count() > 0) sim.launch(g.build(k.work_units));
  }
}

}  // namespace uvmsim
