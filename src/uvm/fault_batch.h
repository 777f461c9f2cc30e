// Fault-batch pre-processing (paper §III-C).
//
// The driver reads fault pointers from the GPU's circular queue, polls
// entries whose ready flag lags, caches them host-side, sorts them, and bins
// them by VABlock — the step that enables coalesced service. Fetching stops
// when the queue is empty or the batch is full (default 256).
#pragma once

#include <cstdint>
#include <vector>

#include "gpu/fault.h"
#include "gpu/fault_buffer.h"
#include "mem/page_mask.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "uvm/cost_model.h"
#include "uvm/driver_config.h"

namespace uvmsim {

class Tracer;

/// One pass's fetched and binned faults. The driver owns one and refills
/// it every pass: Preprocessor::fetch clears `bins` and `staging` but keeps
/// their capacity, so a warmed-up pass allocates nothing.
struct FaultBatch {
  /// Faults for one VABlock.
  struct Bin {
    VaBlockId block = 0;
    PageMask faulted;              ///< unique faulted pages (in-block index)
    std::uint32_t fault_entries = 0;  ///< raw entries binned here (with dups)
    FaultAccessType strongest_access = FaultAccessType::Read;
  };

  std::vector<Bin> bins;  ///< sorted by ascending block id
  std::uint32_t fetched = 0;
  std::uint32_t duplicates = 0;  ///< same-page entries within the batch
  std::uint32_t polls = 0;       ///< not-ready poll iterations performed
  /// Queue-latency samples whose raise time was past the fetch cursor
  /// (possible with corrupted/reordered entries); clamped to zero rather
  /// than dropped.
  std::uint32_t latency_clamps = 0;
  /// The popped entries, sorted in place before binning; kept only so its
  /// capacity carries over to the next fetch.
  std::vector<FaultEntry> staging;

  [[nodiscard]] bool empty() const { return fetched == 0; }
};

class Preprocessor {
 public:
  /// Fetches and bins one batch from `fb` into `batch` (cleared first,
  /// capacity kept), advancing the driver time cursor `t` per the cost
  /// model. With FetchPolicy::StopAtNotReady the batch closes early at the
  /// first entry whose ready flag lags; with PollReady (default) the driver
  /// spins until the entry lands. The caller charges the elapsed time to
  /// the PreProcess category. If `queue_latency` is non-null, each fetched
  /// entry's buffer-residence time (fetch cursor minus raise time) is
  /// recorded there — samples with a raise time past the cursor clamp to
  /// zero and count in FaultBatch::latency_clamps. A non-null `tracer`
  /// receives pop/poll and sort/bin sub-spans.
  static void fetch(FaultBuffer& fb, std::uint32_t batch_size,
                    const CostModel& cm, SimTime& t, FaultBatch& batch,
                    FetchPolicy policy = FetchPolicy::PollReady,
                    LogHistogram* queue_latency = nullptr,
                    Tracer* tracer = nullptr);
};

}  // namespace uvmsim
