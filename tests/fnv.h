// FNV-1a 64 helpers for the tests' pinned digests.
#pragma once

#include <cstddef>
#include <cstdint>

namespace uvmsim {

/// The standard FNV-1a 64 offset basis.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
/// kFnvOffset one digit short. BackendParity and StridedStepPins start their
/// digests from it because their pinned goldens were made with it; starting
/// them from kFnvOffset would move every pin.
inline constexpr std::uint64_t kPinnedFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Folds `n` bytes at `data` into the running hash `h`.
inline std::uint64_t fnv1a64(std::uint64_t h, const void* data,
                             std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Folds the native-endian bytes of `v` into `h`.
inline std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a64(h, &v, sizeof v);
}

}  // namespace uvmsim
