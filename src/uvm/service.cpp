#include "uvm/service.h"

#include "mem/constants.h"

namespace uvmsim {

std::vector<std::uint64_t> runs_to_bytes(const PageMask& mask) {
  std::vector<std::uint64_t> out;
  mask.for_each_run([&out](PageMask::Run r) {
    out.push_back(static_cast<std::uint64_t>(r.count) * kPageSize);
  });
  return out;
}

}  // namespace uvmsim
