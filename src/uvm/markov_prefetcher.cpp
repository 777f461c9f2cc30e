#include "uvm/markov_prefetcher.h"

#include <cassert>

namespace uvmsim {

MarkovPrefetcher::MarkovPrefetcher(const MarkovPrefetchConfig& cfg)
    : cfg_(cfg) {
  // SimConfig::validate() rejects these before any predictor is built.
  assert(cfg.table_entries >= 2 &&
         (cfg.table_entries & (cfg.table_entries - 1)) == 0);
  assert(cfg.degree >= 1 && cfg.degree <= kMaxDegree);
  assert(cfg.confidence_emit >= 1 &&
         cfg.confidence_emit <= cfg.confidence_max);
  table_.resize(cfg.table_entries);
}

void MarkovPrefetcher::observe(VaBlockId block) {
  const auto signed_block = static_cast<std::int64_t>(block);
  if (have_last_) {
    const std::int64_t delta = signed_block - last_block_;
    if (delta != 0) {
      if (have_context_) {
        ++observes_;
        Entry& e = table_[index_of(context_)];
        if (!e.valid || e.context != context_) {
          // Deterministic replacement: tag mismatch overwrites the slot.
          e = Entry{context_, delta, 1, true};
        } else if (e.delta == delta) {
          if (e.confidence < cfg_.confidence_max) ++e.confidence;
        } else if (e.confidence > 0) {
          --e.confidence;  // damped: one miss does not forget a hot stride
        } else {
          e.delta = delta;
          e.confidence = 1;
        }
      }
      context_ = delta;
      have_context_ = true;
    }
  }
  last_block_ = signed_block;
  have_last_ = true;
}

void MarkovPrefetcher::advance(VaBlockId block) {
  const auto signed_block = static_cast<std::int64_t>(block);
  if (have_last_) {
    const std::int64_t delta = signed_block - last_block_;
    if (delta != 0) {
      context_ = delta;
      have_context_ = true;
    }
  }
  last_block_ = signed_block;
  have_last_ = true;
}

std::size_t MarkovPrefetcher::predict(
    VaBlockId from, std::array<VaBlockId, kMaxDegree>& out) const {
  if (!have_context_) return 0;
  std::size_t n = 0;
  std::int64_t ctx = context_;
  auto cur = static_cast<std::int64_t>(from);
  const std::size_t degree =
      cfg_.degree < kMaxDegree ? cfg_.degree : kMaxDegree;
  while (n < degree) {
    const Entry& e = table_[index_of(ctx)];
    if (!e.valid || e.context != ctx || e.confidence < cfg_.confidence_emit) {
      break;
    }
    cur += e.delta;
    if (cur < 0) break;  // would underflow the block-ID space
    out[n++] = static_cast<VaBlockId>(cur);
    ctx = e.delta;  // chain: the emitted delta becomes the next context
  }
  return n;
}

}  // namespace uvmsim
