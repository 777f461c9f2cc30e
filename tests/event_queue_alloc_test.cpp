// Proves the EventQueue's schedule->fire hot path performs no per-event heap
// allocation, for callbacks (a warm slab) and typed steps (no storage beyond
// the heap entry). The whole binary's
// operator new/delete are replaced with counting wrappers; this file must
// stay its own test executable.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

// GCC pairs gtest's inlined `new TestClass` with this file's malloc-backed
// operator delete and reports a mismatch; the pairing is in fact consistent
// (the replaced operator new allocates with malloc, delete frees with free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace uvmsim {
namespace {

TEST(EventQueueAlloc, SteadyStateScheduleFireAllocatesNothing) {
  EventQueue q;
  std::uint64_t fired = 0;
  // Warm-up round: grows the heap vector, slab, and free list once. The
  // callback captures one pointer, small enough for std::function's inline
  // buffer — the simulator's callbacks are the same shape.
  constexpr int kEvents = 256;
  for (int i = 0; i < kEvents; ++i) {
    q.schedule_at(static_cast<SimTime>(i % 17), [&fired] { ++fired; });
  }
  q.run();
  ASSERT_EQ(fired, static_cast<std::uint64_t>(kEvents));

  // Steady state: every schedule reuses a warm slot and the heap vector's
  // existing capacity. Zero allocations allowed.
  const SimTime base = q.now();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < kEvents; ++i) {
      q.schedule_at(base + static_cast<SimTime>(round * 100 + i % 13),
                    [&fired] { ++fired; });
    }
    q.run();
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(fired, static_cast<std::uint64_t>(9 * kEvents));
}

TEST(EventQueueAlloc, ReservePrewarmsColdQueue) {
  // With reserve(), even the *first* schedule->fire round allocates nothing.
  EventQueue q;
  q.reserve(64);
  std::uint64_t fired = 0;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) {
    q.schedule_at(static_cast<SimTime>(i), [&fired] { ++fired; });
  }
  q.run();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(fired, 64u);
}

void count_step(void* fired, std::uint64_t /*payload*/) {
  ++*static_cast<std::uint64_t*>(fired);
}

TEST(EventQueueAlloc, TypedStepsAllocateNothing) {
  // A typed step is only a heap entry: once the heap has its capacity,
  // scheduling and firing steps, mixed with callbacks, allocates nothing.
  EventQueue q;
  q.reserve(64);
  std::uint64_t fired = 0;
  q.set_step_handler(&count_step, &fired);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 64; ++i) {
      if (i % 8 == 0) {
        q.schedule_in(static_cast<SimDuration>(i % 5), [&fired] { ++fired; });
      } else {
        q.schedule_step_in(static_cast<SimDuration>(i % 5),
                           static_cast<std::uint64_t>(i));
      }
    }
    q.run();
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(fired, 8u * 64u);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace uvmsim
