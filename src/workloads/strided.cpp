#include "workloads/strided.h"

#include <algorithm>

#include "core/errors.h"

namespace uvmsim {

StridedTouch::StridedTouch(std::uint64_t bytes, std::uint32_t stride_pages,
                           std::uint32_t compute_ns)
    : bytes_(std::max<std::uint64_t>(bytes, kPageSize)),
      stride_pages_(stride_pages),
      compute_ns_(compute_ns) {
  if (stride_pages_ == 0) {
    throw ConfigError("StridedTouch.stride_pages", "must be >= 1");
  }
}

void StridedTouch::setup(Simulator& sim) {
  RangeId rid = sim.malloc_managed(bytes_, "data");
  const VaRange& r = sim.address_space().range(rid);

  // Each warp's 32 lanes touch one page every stride_pages: a strided
  // record of one page-sized row per lane, cut short at the range end.
  GridBuilder g("strided_touch");
  const std::uint64_t stride = std::uint64_t{stride_pages_} * kPageSize;
  for (std::uint64_t p = 0; p < r.num_pages;
       p += 32 * std::uint64_t{stride_pages_}) {
    const std::uint64_t lanes =
        std::min<std::uint64_t>(32, (r.num_pages - p + stride_pages_ - 1) /
                                        stride_pages_);
    g.new_warp().add_strided(r.first_page, p * kPageSize, kPageSize, stride,
                             static_cast<std::uint32_t>(lanes),
                             /*write=*/true, compute_ns_);
  }
  sim.launch(g.build(static_cast<double>(r.num_pages / stride_pages_)));
}

}  // namespace uvmsim
