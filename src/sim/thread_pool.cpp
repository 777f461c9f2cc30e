#include "sim/thread_pool.h"

#include <algorithm>
#include <exception>

namespace uvmsim {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (n == 0) return;
  if (grain == 0) {
    // ~4 chunks per worker balances load without drowning fine-grained
    // bodies in per-task dispatch (one mutex acquisition + one future per
    // chunk instead of per index). BM_ParallelFor records the crossover.
    grain = std::max<std::size_t>(1, n / (4 * std::max<std::size_t>(1, size())));
  }
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t b = c * grain;
    const std::size_t e = std::min(n, b + grain);
    futs.push_back(submit([&fn, b, e] {
      for (std::size_t i = b; i < e; ++i) fn(i);
    }));
  }
  // Join every chunk before rethrowing: the chunks reference `fn`, which
  // may die as soon as this call returns.
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace uvmsim
