#include "uvm/service.h"

#include <cassert>

#include "mem/constants.h"

namespace uvmsim {

RunBytes runs_to_bytes(const PageMask& mask) {
  RunBytes out;
  mask.for_each_run([&out](PageMask::Run r) {
    assert(out.n_ < RunBytes::kMaxRuns);
    out.bytes_[out.n_++] = static_cast<std::uint64_t>(r.count) * kPageSize;
  });
  return out;
}

}  // namespace uvmsim
