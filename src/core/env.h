// Validated environment-variable parsing, shared by every front end.
//
// One definition so the benches' UVMSIM_GPU_MIB / UVMSIM_FAST handling and
// the campaign executor's UVMSIM_THREADS handling warn and clamp
// identically: strtoull silently maps garbage to 0 and negative input to a
// huge wrapped value, either of which would turn a typo'd knob into a
// 0-byte GPU or a silent serial run. Validate the whole string and fall
// back loudly instead.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <thread>

namespace uvmsim {

/// Reads `name` as a non-negative integer; unset/empty returns `def`.
/// Malformed values (trailing junk, negatives, overflow) warn on stderr and
/// return `def`.
inline std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || v[0] == '-') {
    std::cerr << "uvmsim: ignoring invalid " << name << "=\"" << v
              << "\" (want a non-negative integer); using default " << def
              << "\n";
    return def;
  }
  return static_cast<std::uint64_t>(n);
}

/// Upper bound on any user-supplied thread count. High enough for
/// every real machine, low enough that a typo'd UVMSIM_THREADS=10000 cannot
/// spawn ten thousand workers.
inline constexpr std::uint64_t kMaxThreadCount = 256;

/// The single thread-count resolution rule, shared by the sweep and
/// campaign executors: 0 means "use hardware concurrency",
/// anything above kMaxThreadCount warns on stderr and clamps. `what` names
/// the knob in the warning (e.g. "UVMSIM_THREADS").
inline std::size_t clamp_thread_count(std::uint64_t n, const char* what) {
  if (n == 0) {
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (n > kMaxThreadCount) {
    std::cerr << "uvmsim: clamping " << what << "=" << n << " to "
              << kMaxThreadCount << "\n";
    return static_cast<std::size_t>(kMaxThreadCount);
  }
  return static_cast<std::size_t>(n);
}

/// Reads UVMSIM_THREADS with the shared validation + clamp. Unset (or
/// invalid) means 1 = serial; 0 means hardware concurrency.
inline std::size_t env_threads() {
  return clamp_thread_count(env_u64("UVMSIM_THREADS", 1), "UVMSIM_THREADS");
}

}  // namespace uvmsim
