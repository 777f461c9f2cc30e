// Physical Memory Allocator (PMA) model.
//
// The UVM driver obtains GPU physical memory by calling into the proprietary
// resource-manager (RM) driver. Each RM call is expensive (the paper observes
// latency-bound, milliseconds-scale variance at small sizes, §III-D), so the
// UVM PMA over-allocates: one RM call grabs a slab of root chunks and caches
// the spares, making subsequent allocations nearly free until the cache
// drains. This class models exactly that: a fixed GPU capacity, an RM-call
// counter, and a free-byte cache.
//
// Accounting is by bytes so the driver can carve a block's backing into
// 2 MB root chunks or 64 KB / 4 KB sub-chunks under memory pressure (the
// per-VABlock shape lives in mem/chunk_tree.h). The simulator never models
// physical addresses, so byte counters are exact: for runs that only ever
// allocate whole root chunks the RM-call / transient-hazard / exhaustion
// sequence is identical to the historical chunk-counting implementation.
//
// Allocation failure (capacity exhausted) is the driver's eviction trigger.
#pragma once

#include <cstdint>

#include "mem/constants.h"
#include "sim/hazards.h"
#include "sim/time.h"

namespace uvmsim {

class PhysicalMemoryAllocator {
 public:
  struct Config {
    std::uint64_t capacity_bytes = 128ull * 1024 * 1024;  ///< GPU memory size
    std::uint64_t chunk_bytes = 2ull * 1024 * 1024;       ///< root chunk = VABlock
    /// Chunks fetched per RM call (over-allocation factor). The real driver
    /// grabs large slabs to amortize the RM round trip.
    std::uint32_t slab_chunks = 16;
  };

  /// Result of an allocation attempt.
  struct AllocResult {
    bool ok = false;          ///< bytes handed out
    bool transient = false;   ///< RM call failed transiently; back off, retry
    std::uint32_t rm_calls = 0;  ///< RM round trips performed (0 on cache hit)
  };

  explicit PhysicalMemoryAllocator(const Config& cfg);

  /// Tries to allocate `bytes` (page-aligned, > 0) at simulated time `now`.
  /// On capacity exhaustion returns ok=false (the caller must evict and
  /// retry); with a hazard injector attached the RM call may instead fail
  /// transiently (ok=false, transient=true — back off and retry, no
  /// eviction needed). When the free-byte cache cannot cover the request,
  /// one RM call fetches at least a slab (slab_chunks * chunk_bytes,
  /// clamped to unfetched capacity).
  AllocResult alloc_bytes(std::uint64_t bytes, SimTime now = 0);

  /// Returns `bytes` to the free cache (eviction completed).
  void release_bytes(std::uint64_t bytes);

  /// Root-chunk convenience wrappers (one chunk_bytes chunk).
  AllocResult alloc_chunk(SimTime now = 0) {
    return alloc_bytes(cfg_.chunk_bytes, now);
  }
  void free_chunk() { release_bytes(cfg_.chunk_bytes); }

  /// Attaches the hazard injector (null = RM calls never fail).
  void set_hazard_injector(HazardInjector* h) { hazards_ = h; }

  [[nodiscard]] std::uint64_t capacity_bytes() const { return cfg_.capacity_bytes; }
  [[nodiscard]] std::uint64_t chunk_bytes() const { return cfg_.chunk_bytes; }
  /// Bytes handed out and currently in use.
  [[nodiscard]] std::uint64_t bytes_in_use() const { return in_use_bytes_; }
  /// Bytes still allocatable without eviction (cached + never fetched).
  [[nodiscard]] std::uint64_t bytes_free() const {
    return usable_bytes_ - in_use_bytes_;
  }
  /// bytes_free() as a fraction of usable capacity — the driver's memory
  /// pressure signal for chunk splitting.
  [[nodiscard]] double free_fraction() const {
    return static_cast<double>(bytes_free()) /
           static_cast<double>(usable_bytes_);
  }

  /// Whole root chunks' worth of bytes in use (floor; legacy reporting).
  [[nodiscard]] std::uint64_t chunks_in_use() const {
    return in_use_bytes_ / cfg_.chunk_bytes;
  }
  /// Whole root chunks' worth of cached bytes (floor).
  [[nodiscard]] std::uint64_t cached_chunks() const {
    return cached_bytes_ / cfg_.chunk_bytes;
  }
  /// Total root chunks the GPU can hold.
  [[nodiscard]] std::uint64_t total_chunks() const {
    return cfg_.capacity_bytes / cfg_.chunk_bytes;
  }
  /// Cumulative RM calls (each one costs cost_model.pma_rm_call).
  [[nodiscard]] std::uint64_t rm_calls() const { return rm_calls_; }
  /// RM calls that failed transiently (injected hazards; not in rm_calls()).
  [[nodiscard]] std::uint64_t failed_rm_calls() const {
    return failed_rm_calls_;
  }
  /// Cumulative allocations served (cache hits + RM-backed).
  [[nodiscard]] std::uint64_t allocs() const { return allocs_; }

  /// True when a whole root chunk cannot be produced without eviction.
  [[nodiscard]] bool exhausted() const {
    return bytes_free() < cfg_.chunk_bytes;
  }

 private:
  Config cfg_;
  HazardInjector* hazards_ = nullptr;
  std::uint64_t usable_bytes_;
  std::uint64_t in_use_bytes_ = 0;
  std::uint64_t cached_bytes_ = 0;
  std::uint64_t rm_calls_ = 0;
  std::uint64_t failed_rm_calls_ = 0;
  std::uint64_t allocs_ = 0;
};

}  // namespace uvmsim
