// Campaign experiment requests: the unit of work a campaign queue holds.
//
// A request is a (simulator config, workload) pair in normal form. Queue
// files declare one request per line as `key=value` tokens in any order;
// parsing canonicalizes to a fixed key order with every knob spelled out,
// so two requests that mean the same run always serialize to the same
// canonical line — and therefore the same content hash, which is what the
// result cache dedupes and the result store is addressed by. Trace-driven
// requests hash the *content* of the trace file, not its path: moving a
// trace between directories never invalidates cached results.
//
// Queue line examples:
//   workload=sgemm size-mib=96 gpu-mib=128 prefetch=off
//   workload=trace trace=results/app.trace gpu-mib=64
//   workload=regular size-mib=8 gpu-mib=16 sabotage=crash   # poison (tests)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "sim/hazards.h"
#include "workloads/workload.h"

namespace uvmsim::campaign {

struct RunRequest {
  std::string workload = "regular";  ///< registry name, or "trace"
  std::string trace_file;            ///< path, when workload == "trace"
  std::string trace_content;         ///< loaded trace bytes (hashed, not path)
  std::uint64_t size_mib = 64;
  std::uint64_t gpu_mib = 128;
  /// Fault-servicing backend: "driver" (CPU-driver batched path) or "gpu"
  /// (GPU-driven per-fault resolution). The canonical line spells this key
  /// only when non-default, so every pre-existing request keeps the content
  /// address it was stored under.
  std::string backend = "driver";
  std::string prefetch = "on";       ///< on | off | adaptive
  /// Speculation predictor: "tree" (density tree) or "markov" (learned
  /// delta predictor). Appended to the canonical line only when non-default
  /// — same legacy-preserving rule as `backend`.
  std::string prefetch_policy = "tree";
  std::uint32_t threshold = 51;      ///< density percent, 1..100
  std::string policy = "batch_flush";///< block | batch | batch_flush | once
  std::string eviction = "lru";      ///< lru | access_counter | clock | 2q
  std::string chunking = "on";       ///< on | off
  std::uint32_t batch_size = 256;
  std::string thrash = "off";        ///< off | detect | pin | throttle
  std::uint64_t seed = 42;
  /// In-simulation hazard rates (the PR-1 injector), forwarded verbatim.
  double hazard_dma = 0.0;
  double hazard_fb = 0.0;
  double hazard_pma = 0.0;
  double hazard_ac = 0.0;
  std::uint64_t hazard_seed = 0;
  /// Deliberate, deterministic worker sabotage — the "poison config" knob
  /// used to exercise retry + quarantine. Part of the canonical form.
  WorkerSabotage sabotage = WorkerSabotage::None;
};

/// The strict number parsers every front end shares. `param` names the knob
/// in the ConfigError raised for a bad value. parse_u64 takes decimal digits
/// only (no sign, no whitespace, no trailing junk) and the value must fit
/// the field (`max`); parse_double takes one whole strtod number.
[[nodiscard]] std::uint64_t parse_u64(
    const std::string& param, const std::string& v,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
[[nodiscard]] double parse_double(const std::string& param,
                                  const std::string& v);

/// Sets one knob from its queue-line spelling (`key`=`value`). Unknown keys
/// and malformed numbers raise ConfigError naming the key; enum values are
/// checked later, by request_sim_config. Both front ends parse through this:
/// queue lines here, uvmsim_cli flags via its flag-to-key table.
void set_request_key(RunRequest& req, const std::string& key,
                     const std::string& value);

/// Parses one queue line of `key=value` tokens (see set_request_key), then
/// checks the cross-key constraints. Does NOT load trace content — the
/// campaign loader resolves trace paths (see load_trace_content).
[[nodiscard]] RunRequest parse_request_line(const std::string& line);

/// Parses a whole queue file ('#' comments and blank lines skipped).
/// Errors carry the 1-based line number.
[[nodiscard]] std::vector<RunRequest> parse_queue_file(std::istream& is);

/// Reads req.trace_file into req.trace_content (ConfigError when the
/// request is trace-driven and the file is missing/unreadable). No-op for
/// named-workload requests.
void load_trace_content(RunRequest& req);

/// The canonical one-line serialization: fixed key order, every knob
/// explicit, trace identified by a content hash. Equal canonical lines
/// define equal requests.
[[nodiscard]] std::string canonical_request(const RunRequest& req);

/// FNV-1a 64-bit hash of the canonical line, avalanche-finished with
/// mix64. Stable across platforms and runs.
[[nodiscard]] std::uint64_t request_hash(const RunRequest& req);

/// The request's content address: 16 lowercase hex digits of request_hash.
[[nodiscard]] std::string request_id(const RunRequest& req);

/// Builds the SimConfig this request describes. Throws ConfigError on
/// invalid knob values or cross-key constraints (those parse_request_line
/// checks). uvmsim_cli builds its config through this too, so both front
/// ends validate every shared knob identically.
[[nodiscard]] SimConfig request_sim_config(const RunRequest& req);

/// Builds the workload (registry lookup or trace replay). Throws
/// ConfigError for unknown workloads / unloaded trace content.
[[nodiscard]] std::unique_ptr<Workload> request_workload(const RunRequest& req);

/// The uvmsim_cli argument vector equivalent to this request (used by the
/// process-isolation worker). Excludes the program name; includes --csv.
[[nodiscard]] std::vector<std::string> request_cli_args(const RunRequest& req);

}  // namespace uvmsim::campaign
