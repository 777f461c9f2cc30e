#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace uvmsim {
namespace {

TEST(EventQueue, StartsAtTimeZero) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ExecutesInTimestampOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, EqualTimestampsRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  SimTime seen = 0;
  q.schedule_at(100, [&] {
    q.schedule_in(50, [&] { seen = q.now(); });
  });
  q.run();
  EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.schedule_at(100, [&] {
    EXPECT_THROW(q.schedule_at(50, [] {}), std::logic_error);
  });
  q.run();
}

TEST(EventQueue, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) q.schedule_in(10, chain);
  };
  q.schedule_at(0, chain);
  q.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, StepExecutesSingleEvent) {
  EventQueue q;
  int count = 0;
  q.schedule_at(1, [&] { ++count; });
  q.schedule_at(2, [&] { ++count; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(q.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, ExecutedEventsCounts) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_at(static_cast<SimTime>(i), [] {});
  q.run();
  EXPECT_EQ(q.executed_events(), 7u);
}

TEST(EventQueue, ReserveDoesNotDisturbSemantics) {
  EventQueue q;
  q.reserve(64);
  std::vector<int> order;
  for (int i = 9; i >= 0; --i) {
    q.schedule_at(static_cast<SimTime>(i), [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, FifoOrderSurvivesSlotRecycling) {
  // Interleave firing and re-scheduling at one timestamp so slots recycle
  // mid-stream; FIFO tie-breaking must still hold.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] {
    for (int i = 0; i < 5; ++i) {
      q.schedule_at(20, [&order, i] { order.push_back(i); });
    }
  });
  q.run();
  q.schedule_at(30, [&order] { order.push_back(100); });
  q.schedule_at(30, [&order] { order.push_back(101); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 100, 101}));
}

TEST(EventQueue, ClockMonotoneAcrossCallbacks) {
  EventQueue q;
  SimTime last = 0;
  bool monotone = true;
  for (SimTime t : {5u, 1u, 9u, 3u, 7u}) {
    q.schedule_at(t, [&] {
      monotone = monotone && q.now() >= last;
      last = q.now();
    });
  }
  q.run();
  EXPECT_TRUE(monotone);
}

/// Step handler that appends each typed step's id to a vector.
void record_step(void* log, std::uint32_t id) {
  static_cast<std::vector<std::uint64_t>*>(log)->push_back(id);
}

TEST(EventQueue, TypedStepsFireAtTheirTimeWithTheirPayload) {
  // Ids are dense: 70 grows the tree past its first few leaves.
  EventQueue q;
  std::vector<std::uint64_t> steps;
  q.set_step_handler(&record_step, &steps);
  q.schedule_step_in(30, 3);
  q.schedule_step_in(10, 1);
  q.schedule_step_in(20, 70);
  EXPECT_EQ(q.pending_events(), 3u);
  q.run();
  EXPECT_EQ(steps, (std::vector<std::uint64_t>{1, 70, 3}));
  EXPECT_EQ(q.now(), 30u);
  EXPECT_EQ(q.executed_events(), 3u);
}

TEST(EventQueue, TypedAndCallbackEventsInterleaveInWhenSeqOrder) {
  // Both kinds share one sequence counter: whatever their kind, events run
  // in (when, seq) order. Ids >= 1000 are callbacks, the rest typed steps;
  // every event also schedules one follow-up of the other kind, so events
  // scheduled during the run are covered too.
  EventQueue q;
  std::vector<std::uint64_t> fired;
  struct Expect {
    SimTime when;
    std::uint64_t seq;
    std::uint64_t id;
  };
  std::vector<Expect> expect;
  std::uint64_t seq = 0;
  std::uint64_t next_id = 0;
  std::uint32_t lcg = 12345;
  auto draw = [&lcg] {
    lcg = lcg * 1103515245u + 12345u;
    return (lcg >> 16) % 5;  // few distinct times: many equal timestamps
  };
  std::function<void(bool)> schedule;
  auto on_fire = [&](std::uint64_t id) {
    fired.push_back(id);
    if (next_id < 400) schedule(id < 1000);
  };
  q.set_step_handler(
      [](void* fire, std::uint32_t id) {
        (*static_cast<decltype(on_fire)*>(fire))(id);
      },
      &on_fire);
  schedule = [&](bool callback) {
    const SimDuration delay = draw();
    const std::uint64_t n = next_id++;
    const std::uint64_t id = callback ? 1000 + n : n;
    expect.push_back({q.now() + delay, seq++, id});
    if (callback) {
      q.schedule_in(delay, [&on_fire, id] { on_fire(id); });
    } else {
      q.schedule_step_in(delay, id);
    }
  };
  for (int i = 0; i < 40; ++i) schedule(i % 3 == 0);
  q.run();
  std::sort(expect.begin(), expect.end(), [](const Expect& a, const Expect& b) {
    return std::tie(a.when, a.seq) < std::tie(b.when, b.seq);
  });
  std::vector<std::uint64_t> want;
  for (const Expect& e : expect) want.push_back(e.id);
  EXPECT_EQ(fired, want);
  EXPECT_EQ(q.executed_events(), want.size());
}

TEST(EventQueue, HandlersSchedulingAnyNumberFireInWhenSeqOrder) {
  // A fired typed step's leaf goes idle while its path still names it,
  // until a schedule or the next step() replays that path. Handlers here
  // schedule 0, 1 or 3 follow-ups of either kind, so other leaves' paths
  // are replayed through the stale one, and every handler checks
  // pending_events() and empty() against the count of unfired events.
  EventQueue q;
  std::vector<std::uint64_t> fired;
  struct Expect {
    SimTime when;
    std::uint64_t seq;
    std::uint64_t id;
  };
  std::vector<Expect> expect;
  std::uint64_t seq = 0;
  std::uint64_t next_id = 0;
  std::uint32_t lcg = 777;
  auto draw = [&lcg](std::uint32_t n) {
    lcg = lcg * 1103515245u + 12345u;
    return (lcg >> 16) % n;
  };
  std::function<void()> schedule;
  auto on_fire = [&](std::uint64_t id) {
    fired.push_back(id);
    EXPECT_EQ(q.pending_events(), expect.size() - fired.size()) << id;
    EXPECT_EQ(q.empty(), expect.size() == fired.size()) << id;
    if (next_id >= 600) return;
    constexpr std::array<std::uint32_t, 3> kFollowUps{0, 1, 3};
    const std::uint32_t follow_ups = kFollowUps[draw(3)];
    for (std::uint32_t i = 0; i < follow_ups; ++i) {
      schedule();
      EXPECT_EQ(q.pending_events(), expect.size() - fired.size()) << id;
    }
  };
  q.set_step_handler(
      [](void* fire, std::uint32_t id) {
        (*static_cast<decltype(on_fire)*>(fire))(id);
      },
      &on_fire);
  schedule = [&] {
    const bool callback = draw(4) == 0;
    const SimDuration delay = draw(6);  // many equal timestamps
    const std::uint64_t n = next_id++;
    const std::uint64_t id = callback ? 1000 + n : n;
    expect.push_back({q.now() + delay, seq++, id});
    if (callback) {
      q.schedule_in(delay, [&on_fire, id] { on_fire(id); });
    } else {
      q.schedule_step_in(delay, id);
    }
  };
  for (int i = 0; i < 30; ++i) schedule();
  q.run();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending_events(), 0u);
  std::sort(expect.begin(), expect.end(), [](const Expect& a, const Expect& b) {
    return std::tie(a.when, a.seq) < std::tie(b.when, b.seq);
  });
  std::vector<std::uint64_t> want;
  for (const Expect& e : expect) want.push_back(e.id);
  EXPECT_EQ(fired, want);
  EXPECT_GT(want.size(), 300u);  // the run did not die out early
}

TEST(EventQueue, ThrowingStepHandlerLeavesTheQueueConsistent) {
  // A step whose handler throws is still fired: it is gone from the queue,
  // and the events it scheduled before throwing stay pending.
  EventQueue q;
  int calls = 0;
  std::pair<EventQueue*, int*> state{&q, &calls};
  q.set_step_handler(
      [](void* ctx, std::uint32_t id) {
        auto& self = *static_cast<std::pair<EventQueue*, int*>*>(ctx);
        ++*self.second;
        if (id == 1) {
          self.first->schedule_step_in(5, 2);
          throw std::runtime_error("step failed");
        }
      },
      &state);
  q.schedule_step_in(1, 1);
  q.schedule_step_in(3, 3);
  EXPECT_THROW(q.step(), std::runtime_error);
  EXPECT_EQ(q.pending_events(), 2u);
  q.run();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(q.now(), 6u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingCountTracksScheduleAndFire) {
  EventQueue q;
  std::vector<std::uint64_t> steps;
  q.set_step_handler(&record_step, &steps);
  EXPECT_EQ(q.pending_events(), 0u);
  q.schedule_at(1, [] {});
  q.schedule_step_in(2, 0);
  q.schedule_at(3, [] {});
  EXPECT_EQ(q.pending_events(), 3u);
  q.step();
  EXPECT_EQ(q.pending_events(), 2u);
  q.step();
  EXPECT_EQ(q.pending_events(), 1u);
  EXPECT_EQ(steps.size(), 1u);
  q.run();
  EXPECT_EQ(q.pending_events(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StepOnEmptyQueueKeepsTheClock) {
  // The clock only ever moves to the time of an event that ran.
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_EQ(q.run(), 0u);
  q.schedule_at(100, [] {});
  EXPECT_EQ(q.run(), 100u);
  EXPECT_FALSE(q.step());
  EXPECT_EQ(q.now(), 100u);
}

/// A step handler's view of its queue and what it fired, for the tests
/// whose handlers schedule steps themselves.
struct StepRig {
  EventQueue q;
  std::vector<std::pair<SimTime, std::uint32_t>> fired;
  std::function<void(std::uint32_t)> on_step;

  StepRig() {
    q.set_step_handler(
        [](void* rig, std::uint32_t id) {
          auto& self = *static_cast<StepRig*>(rig);
          self.fired.emplace_back(self.q.now(), id);
          if (self.on_step) self.on_step(id);
        },
        this);
  }
};

TEST(EventQueue, HandlerReschedulesItsOwnId) {
  // The fired id is no longer pending, so its handler may schedule it again.
  StepRig r;
  int left = 3;
  r.on_step = [&](std::uint32_t id) {
    if (id != 0 || left-- == 0) return;
    const std::size_t before = r.q.pending_events();
    r.q.schedule_step_in(10, 0);
    EXPECT_EQ(r.q.pending_events(), before + 1);
  };
  r.q.schedule_step_in(5, 0);
  r.q.schedule_step_in(25, 1);
  r.q.run();
  // At 25, id 1 was scheduled first.
  EXPECT_EQ(r.fired, (std::vector<std::pair<SimTime, std::uint32_t>>{
                         {5, 0}, {15, 0}, {25, 1}, {25, 0}, {35, 0}}));
  EXPECT_TRUE(r.q.empty());
}

TEST(EventQueue, HandlerSchedulesAnotherIdThenItsOwn) {
  // The other id's path is replayed while the fired id's path still names
  // the fired leaf; rescheduling the fired id must repair it.
  StepRig r;
  bool first = true;
  r.on_step = [&](std::uint32_t id) {
    if (id == 2 && first) {
      first = false;
      r.q.schedule_step_in(4, 3);  // a sibling leaf of id 2
      r.q.schedule_step_in(1, 2);
      r.q.schedule_step_in(2, 6);  // another subtree
    }
  };
  r.q.schedule_step_in(10, 2);
  r.q.schedule_step_in(20, 5);
  r.q.run();
  EXPECT_EQ(r.fired, (std::vector<std::pair<SimTime, std::uint32_t>>{
                         {10, 2}, {11, 2}, {12, 6}, {14, 3}, {20, 5}}));
}

TEST(EventQueue, FiredIdReusedByANewOwner) {
  // Like a warp that retires while its step fires and hands its id to a
  // newly dispatched warp: the id's next step belongs to the new owner.
  StepRig r;
  std::vector<int> owner{10, 20};  // id -> owner
  std::vector<int> ran;
  r.on_step = [&](std::uint32_t id) {
    ran.push_back(owner[id]);
    if (owner[id] == 10) {
      owner[id] = 11;  // owner 10 retires; owner 11 takes its id
      r.q.schedule_step_in(0, id);
    }
  };
  r.q.schedule_step_in(3, 0);
  r.q.schedule_step_in(3, 1);
  r.q.run();
  EXPECT_EQ(ran, (std::vector<int>{10, 20, 11}));
}

TEST(EventQueue, SchedulingAPendingIdIsRejected) {
  StepRig r;
  r.q.schedule_step_in(5, 4);
  EXPECT_THROW(r.q.schedule_step_in(1, 4), std::logic_error);
  EXPECT_EQ(r.q.pending_events(), 1u);
  r.q.run();
  // The rejected step left no trace: id 4 fired once, at its first time.
  EXPECT_EQ(r.fired,
            (std::vector<std::pair<SimTime, std::uint32_t>>{{5, 4}}));
}

TEST(EventQueue, ReusedIdsFireInWhenSeqOrder) {
  // A small pool of ids, each reused many times: every handler draws one
  // to three ids at random (its own among them) and schedules the idle
  // ones, so paths
  // are replayed through the fired leaf before and after it is rescheduled.
  StepRig r;
  struct Expect {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t id;
  };
  std::vector<Expect> expect;
  std::uint64_t seq = 0;
  std::uint32_t lcg = 4242;
  auto draw = [&lcg](std::uint32_t n) {
    lcg = lcg * 1103515245u + 12345u;
    return (lcg >> 16) % n;
  };
  constexpr std::uint32_t kIds = 13;
  std::vector<bool> pending(kIds, false);
  auto schedule = [&](std::uint32_t id) {
    const SimDuration delay = draw(4);  // many equal timestamps
    expect.push_back({r.q.now() + delay, seq++, id});
    pending[id] = true;
    r.q.schedule_step_in(delay, id);
  };
  r.on_step = [&](std::uint32_t id) {
    pending[id] = false;
    if (seq >= 3000) return;
    for (std::uint32_t n = 1 + draw(3); n > 0; --n) {
      const std::uint32_t pick = draw(kIds);
      if (!pending[pick]) schedule(pick);
    }
  };
  for (std::uint32_t id = 0; id < kIds; id += 2) schedule(id);
  r.q.run();
  std::sort(expect.begin(), expect.end(), [](const Expect& a, const Expect& b) {
    return std::tie(a.when, a.seq) < std::tie(b.when, b.seq);
  });
  std::vector<std::pair<SimTime, std::uint32_t>> want;
  for (const Expect& e : expect) want.emplace_back(e.when, e.id);
  EXPECT_EQ(r.fired, want);
  EXPECT_GT(want.size(), 1000u);  // the run did not die out early
}

TEST(EventQueue, FiredCallbackReleasesItsCaptures) {
  // A callback is moved out of the slab to run, so a fired event pins
  // nothing it captured once it returns.
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  EventQueue q;
  q.schedule_at(5, [t = std::move(token)] { (void)*t; });
  EXPECT_FALSE(watch.expired());
  q.run();
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace uvmsim
