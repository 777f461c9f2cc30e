#include "uvm/fault_batch.h"

#include <algorithm>
#include <cassert>

#include "sim/annotations.h"
#include "sim/trace.h"

namespace uvmsim {

UVMSIM_HOT void Preprocessor::fetch(FaultBuffer& fb, std::uint32_t batch_size,
                                    const CostModel& cm, SimTime& t,
                                    FaultBatch& batch, FetchPolicy policy,
                                    LogHistogram* queue_latency,
                                    Tracer* tracer) {
  batch.bins.clear();
  batch.fetched = 0;
  batch.duplicates = 0;
  batch.polls = 0;
  batch.latency_clamps = 0;
  auto& entries = batch.staging;  // capacity carries over between passes
  entries.clear();
  entries.reserve(std::min<std::size_t>(batch_size, fb.size()));

  const SimTime t_pop0 = t;
  while (entries.size() < batch_size) {
    const FaultEntry* head = fb.peek();
    if (head == nullptr) break;
    if (head->ready_at > t) {
      if (policy == FetchPolicy::StopAtNotReady && !entries.empty()) {
        break;  // close the batch early; the laggard waits for the next pass
      }
      // Poll the ready flag until the entry lands.
      std::uint32_t polls = static_cast<std::uint32_t>(
          (head->ready_at - t + cm.poll_retry - 1) / cm.poll_retry);
      polls = std::max<std::uint32_t>(polls, 1);
      batch.polls += polls;
      t += static_cast<SimDuration>(polls) * cm.poll_retry;
    }
    entries.push_back(*fb.pop());
    if (queue_latency != nullptr) {
      const FaultEntry& e = entries.back();
      if (t >= e.raised_at) {
        queue_latency->add(t - e.raised_at);
      } else {
        // A corrupted or reordered entry can carry a raise time past the
        // fetch cursor; clamp the sample to zero and count the occurrence
        // instead of silently losing it.
        queue_latency->add(0);
        ++batch.latency_clamps;
      }
    }
    t += cm.fetch_per_fault;
  }
  batch.fetched = static_cast<std::uint32_t>(entries.size());
  if (entries.empty()) return;
  if (tracer != nullptr) {
    tracer->span(TraceCategory::Fetch, "fetch.pop", t_pop0, t, 0, "fetched",
                 batch.fetched, "polls", batch.polls);
  }

  // Sort by faulting page, then bin per VABlock, deduplicating same-page
  // entries (parallel SMs frequently fault on the same page).
  const SimTime t_sort0 = t;
  t += static_cast<SimDuration>(entries.size()) *
       (cm.sort_per_fault + cm.bin_per_fault);
  std::sort(entries.begin(), entries.end(),
            [](const FaultEntry& a, const FaultEntry& b) {
              return a.page < b.page;
            });

  // Page-sorted entries are already grouped by ascending VABlock (entries
  // carry block == block_of_page(page)), so binning is a single grouping
  // pass appending to the output vector — no per-batch ordered map.
  VirtPage prev_page = ~VirtPage{0};
  FaultBatch::Bin* bin = nullptr;
  for (const FaultEntry& e : entries) {
    assert(e.block == block_of_page(e.page));
    if (bin == nullptr || bin->block != e.block) {
      assert(bin == nullptr || bin->block < e.block);
      bin = &batch.bins.emplace_back();
      bin->block = e.block;
    }
    ++bin->fault_entries;
    // The access-type upgrade must happen before the dedup skip: a
    // Read-then-Write pair on the same page still makes Write the bin's
    // strongest access.
    if (e.access == FaultAccessType::Write) {
      bin->strongest_access = FaultAccessType::Write;
    }
    if (e.page == prev_page) {
      ++batch.duplicates;
      continue;
    }
    prev_page = e.page;
    bin->faulted.set(page_in_block(e.page));
  }
  t += static_cast<SimDuration>(batch.duplicates) * cm.dedup_per_fault;
  if (tracer != nullptr) {
    tracer->span(TraceCategory::Fetch, "fetch.sort_bin", t_sort0, t, 0,
                 "bins", batch.bins.size(), "dups", batch.duplicates);
  }
}

}  // namespace uvmsim
