// Bad: a parallel_for body mutates captured shared state (`total_`, a
// member) that is neither indexed by a body-local nor std::atomic —
// concurrent chunks race on it and the sum depends on scheduling.
#include <cstddef>
#include <functional>
#include <vector>

namespace fix {

struct Pool {
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);
};

struct Stats {
  void run(Pool& pool, const std::vector<int>& items) {
    pool.parallel_for(items.size(),
                      [&](std::size_t i) { total_ += items[i]; });
  }
  long total_ = 0;
};

}  // namespace fix
