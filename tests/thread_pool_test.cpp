#include "sim/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <vector>

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

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
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
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 10; ++i) {
    futs.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futs) f.get();
  // One worker runs the tasks one at a time, in submission order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

}  // namespace
}  // namespace uvmsim
