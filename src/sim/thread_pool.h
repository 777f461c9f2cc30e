// A small thread pool used to run independent simulations (parameter-sweep
// points, campaign requests) in parallel. parallel_for chunks are disjoint
// index ranges and every task owns its own simulation, so results are
// identical regardless of pool size, host load, or which thread executed
// which chunk.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace uvmsim {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers (defaults to hardware
  /// concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the returned future yields its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Indices are submitted in contiguous chunks of `grain` (0 = pick a
  /// grain that gives each worker a few chunks) so fine-grained bodies
  /// amortize the queue mutex + future machinery over many indices instead
  /// of paying it per index. Every chunk finishes before the call returns;
  /// then the first chunk's exception, in index order, is rethrown.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 0);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace uvmsim
