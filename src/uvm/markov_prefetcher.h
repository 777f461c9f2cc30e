// Deterministic online-learned prefetcher: a first-order Markov predictor
// over the VABlock-delta history of serviced faults.
//
// Motivation (arxiv 2203.12672, 2204.02974): the paper's static density
// tree can only react to faults *inside* a block — it must eat at least one
// fault batch per 2 MB block before it helps, and under oversubscription
// its block-granular speculation aggravates eviction pressure (PR 5). A
// history-based predictor learns the stream's stride at block granularity
// and populates the *next* blocks before they fault at all, while staying
// silent on streams it cannot predict (random access keeps confidence low,
// so the learned policy degrades to prefetch-off instead of tree's
// worst case).
//
// Table layout: a bounded direct-mapped array of entries
//   { context: int64 (previous block delta — also the tag),
//     delta:   int64 (predicted next delta),
//     confidence: saturating counter in [0, confidence_max] }
// indexed by a multiplicative hash of the context. Replacement is
// deterministic: a tag mismatch overwrites the slot (last writer wins);
// there is no LRU metadata, no randomness, no floats. Confidence moves by
// +1 on a confirmed prediction, -1 on a miss, and the entry re-trains to
// the new delta only at confidence 0 — a damped integer analogue of the
// learning-rate/threshold split in the learned-prefetching papers.
//
// Emission is confidence-thresholded: predict() chains up to `degree`
// deltas but stops at the first entry below `confidence_emit`, so the
// predictor must see the same transition several times before it spends
// PMA capacity on it.
//
// Determinism contract: observe() is called only from the driver's serial
// bin walk, and every operation here is integer arithmetic on that call
// sequence — the same trace produces bit-identical tables and predictions.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/constants.h"
#include "uvm/driver_config.h"

namespace uvmsim {

class MarkovPrefetcher {
 public:
  /// Hard ceiling on chained predictions per observe step.
  static constexpr std::size_t kMaxDegree = 8;

  /// Allocates the table. `cfg` must have passed SimConfig::validate().
  explicit MarkovPrefetcher(const MarkovPrefetchConfig& cfg);

  /// Feeds one serviced fault bin's block ID into the delta history.
  /// Repeats of the current block (delta 0) are ignored: intra-block
  /// locality is the density tree's job, block transitions are ours.
  void observe(VaBlockId block);

  /// Advances the delta history WITHOUT training the table. Used for the
  /// predictor's own emissions: a successfully prefetched block never
  /// faults, so without this the next real fault would appear as one big
  /// delta spanning the prefetch-hit gap and churn the table. Advancing
  /// (but not self-confirming) keeps the history contiguous while only
  /// real faults ever move confidence.
  void advance(VaBlockId block);

  /// Chains up to cfg.degree confident predictions starting from `from`
  /// under the current context; fills `out[0..n)` and returns n. Stops at
  /// the first low-confidence / missing entry or when a predicted ID would
  /// underflow block 0. No allocation — safe on the hot servicing path.
  [[nodiscard]] std::size_t predict(
      VaBlockId from, std::array<VaBlockId, kMaxDegree>& out) const;

  /// Transitions observed (table updates attempted).
  [[nodiscard]] std::uint64_t observes() const { return observes_; }
  [[nodiscard]] const MarkovPrefetchConfig& config() const { return cfg_; }

 private:
  struct Entry {
    std::int64_t context = 0;  ///< tag: the delta that preceded this one
    std::int64_t delta = 0;    ///< predicted next delta
    std::uint32_t confidence = 0;
    bool valid = false;
  };

  [[nodiscard]] std::size_t index_of(std::int64_t context) const {
    // SplitMix64-style finalizer: full-avalanche multiplicative hash, so
    // small signed deltas (the common case) spread over the whole table.
    auto h = static_cast<std::uint64_t>(context);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h & (table_.size() - 1));
  }

  MarkovPrefetchConfig cfg_;
  std::vector<Entry> table_;
  std::int64_t context_ = 0;   ///< most recent observed delta
  std::int64_t last_block_ = 0;
  bool have_last_ = false;
  bool have_context_ = false;
  std::uint64_t observes_ = 0;
};

}  // namespace uvmsim
