#include "sim/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

namespace uvmsim {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 42; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultSizePositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::logic_error("x");
                                 }),
               std::logic_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(8);
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::future<void>> futs;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    futs.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 500500u);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex mu;
  pool.parallel_for(10, [&](std::size_t i) {
    std::lock_guard lock(mu);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order.size(), 10u);
}

}  // namespace
}  // namespace uvmsim
