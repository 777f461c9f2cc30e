// Warp execution state.
//
// Warps are the unit of execution and of fault-induced stalling: a replayable
// fault parks the whole warp while other warps on the SM keep running (latency
// hiding, paper §III-E). A parked warp resumes only when the driver issues a
// replay; it then retries the same access and may fault again (duplicate
// faults) if its pages were not serviced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpu/access.h"
#include "sim/time.h"

namespace uvmsim {

enum class WarpState : std::uint8_t {
  Runnable,  ///< dispatched; will execute its next access
  Stalled,   ///< parked on a far-fault, waiting for replay
  Done,      ///< stream exhausted, or a block slot's unused warp
};

struct Warp {
  std::uint32_t id = 0;           ///< global warp id within the kernel
  std::uint32_t sm = 0;           ///< SM the block is resident on
  const AccessStream* stream = nullptr;
  std::size_t pos = 0;            ///< index of the next record to execute
  WarpState state = WarpState::Done;

  /// Lanes of the in-flight record still waiting for their page. Hardware
  /// parks only the missing lanes: a lane that completed never re-faults,
  /// even if its page is evicted before the warp finishes — this per-lane
  /// monotonicity is what guarantees forward progress under eviction
  /// thrash.
  std::vector<LanePage> pending_pages;
  bool record_in_flight = false;
  /// Number of the warp's last lane walk (GpuEngine::step_lanes). A retry
  /// re-checks a parked lane in full only if its big page was stamped
  /// since this walk began; otherwise the lane is still exactly as that
  /// walk left it.
  std::uint64_t walk = 0;

  SimTime stall_start = 0;        ///< when the warp parked (for stall stats)
};

}  // namespace uvmsim
