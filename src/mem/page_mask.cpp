#include "mem/page_mask.h"

namespace uvmsim {

std::vector<PageMask::Run> PageMask::runs() const {
  std::vector<Run> out;
  for_each_run([&out](Run r) { out.push_back(r); });
  return out;
}

std::vector<std::uint32_t> PageMask::set_indices() const {
  std::vector<std::uint32_t> out;
  out.reserve(count());
  for (std::uint32_t i : set_bits()) out.push_back(i);
  return out;
}

}  // namespace uvmsim
