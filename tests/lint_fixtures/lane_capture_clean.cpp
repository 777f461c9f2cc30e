// Clean: each index writes only its own slot (subscripted by the body's
// parameter), and the shared counter is std::atomic.
#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

namespace fix {

struct Pool {
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);
};

struct Stats {
  void run(Pool& pool, const std::vector<int>& items) {
    std::vector<long> doubled(items.size());
    pool.parallel_for(items.size(), [&](std::size_t i) {
      doubled[i] = 2L * items[i];
      ++visited_;
    });
  }
  std::atomic<long> visited_{0};
};

}  // namespace fix
