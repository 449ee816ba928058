#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace aequus::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30.0, [&] { order.push_back(3); });
  s.schedule_at(10.0, [&] { order.push_back(1); });
  s.schedule_at(20.0, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 30.0);
}

TEST(Simulator, SameTimeEventsFireInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(7.0, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  double fired_at = -1.0;
  s.schedule_at(10.0, [&] {
    s.schedule_after(5.0, [&] { fired_at = s.now(); });
  });
  s.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator s;
  s.schedule_at(10.0, [] {});
  s.run_all();
  double fired_at = -1.0;
  s.schedule_at(5.0, [&] { fired_at = s.now(); });
  s.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Simulator, NegativeDelayClampsToZero) {
  Simulator s;
  double fired_at = -1.0;
  s.schedule_after(-3.0, [&] { fired_at = s.now(); });
  s.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 0.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  EventHandle handle = s.schedule_at(5.0, [&] { fired = true; });
  EXPECT_TRUE(handle.active());
  handle.cancel();
  EXPECT_FALSE(handle.active());
  s.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator s;
  int count = 0;
  s.schedule_at(10.0, [&] { ++count; });
  s.schedule_at(20.0, [&] { ++count; });
  s.run_until(15.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(s.now(), 15.0);
  s.run_until(25.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PeriodicFiresAtFixedCadence) {
  Simulator s;
  std::vector<double> times;
  s.schedule_periodic(10.0, 10.0, [&] { times.push_back(s.now()); });
  s.run_until(45.0);
  EXPECT_EQ(times, (std::vector<double>{10.0, 20.0, 30.0, 40.0}));
}

TEST(Simulator, PeriodicCancelStopsFutureFirings) {
  Simulator s;
  int count = 0;
  EventHandle handle = s.schedule_periodic(1.0, 1.0, [&] { ++count; });
  s.run_until(3.5);
  handle.cancel();
  s.run_until(10.0);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PeriodicCanCancelItself) {
  Simulator s;
  int count = 0;
  EventHandle handle;
  handle = s.schedule_periodic(1.0, 1.0, [&] {
    if (++count == 2) handle.cancel();
  });
  s.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PeriodicRejectsNonPositivePeriod) {
  Simulator s;
  EXPECT_THROW(s.schedule_periodic(0.0, 0.0, [] {}), std::invalid_argument);
}

TEST(Simulator, DestroyedHandleDoesNotCancel) {
  // EventHandle is a cancellation token, not an RAII guard: letting it go
  // out of scope must leave the event armed.
  Simulator s;
  bool fired = false;
  { EventHandle handle = s.schedule_at(5.0, [&] { fired = true; }); }
  s.run_all();
  EXPECT_TRUE(fired);
}

TEST(Simulator, DestroyedPeriodicHandleKeepsFiring) {
  Simulator s;
  int count = 0;
  { EventHandle handle = s.schedule_periodic(1.0, 1.0, [&] { ++count; }); }
  s.run_until(4.5);
  EXPECT_EQ(count, 4);
}

TEST(Simulator, PeriodicCancelBetweenFiringsTakesEffectImmediately) {
  // Cancel lands between the 2nd and 3rd firings (at t=2.5), scheduled as
  // an event so the cancellation itself happens in virtual time.
  Simulator s;
  int count = 0;
  EventHandle handle = s.schedule_periodic(1.0, 1.0, [&] { ++count; });
  s.schedule_at(2.5, [&] { handle.cancel(); });
  s.run_until(10.0);
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(handle.active());
}

TEST(Simulator, CancelledEventStillDrainsFromQueue) {
  Simulator s;
  EventHandle handle = s.schedule_at(5.0, [] {});
  handle.cancel();
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);
  // A cancelled event is skipped, not executed.
  EXPECT_EQ(s.executed(), 0u);
}

TEST(Simulator, TieBreakHoldsAcrossMixedScheduleCalls) {
  // (time, insertion-seq) ordering must hold regardless of which schedule
  // API inserted the event and in which relative time order.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(10.0, [&] { order.push_back(0); });
  s.schedule_after(10.0, [&] { order.push_back(1); });
  s.schedule_at(10.0, [&] { order.push_back(2); });
  s.schedule_periodic(10.0, 100.0, [&] { order.push_back(3); });
  s.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, TieBreakAppliesToEventsScheduledMidFiring) {
  // An event scheduled *during* a t=5 firing for t=5 runs after every
  // pre-existing t=5 event (it got a later insertion sequence).
  Simulator s;
  std::vector<int> order;
  s.schedule_at(5.0, [&] {
    order.push_back(0);
    s.schedule_after(0.0, [&] { order.push_back(9); });
  });
  s.schedule_at(5.0, [&] { order.push_back(1); });
  s.schedule_at(5.0, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule_at(1.0, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(s.executed(), 1u);
}

TEST(Simulator, EventsScheduledDuringExecutionRun) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(1.0, recurse);
  };
  s.schedule_at(0.0, recurse);
  s.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(s.now(), 4.0);
}

TEST(SimulatorStream, TiesOrderAgainstEventsScheduledBeforeAndAfter) {
  Simulator s;
  std::vector<std::string> order;
  s.schedule_at(5.0, [&] { order.push_back("before"); });
  s.schedule_stream({5.0, 5.0}, [&](std::size_t i) { order.push_back("s" + std::to_string(i)); });
  s.schedule_at(5.0, [&] { order.push_back("after"); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"before", "s0", "s1", "after"}));
}

TEST(SimulatorStream, ElementsPrecedeEventsScheduledDuringAFiring) {
  // The stream reserved its sequences when it was scheduled, so an event
  // a firing adds for the same instant runs after the remaining elements,
  // as it would after a loop of schedule_at calls.
  Simulator s;
  std::vector<std::string> order;
  s.schedule_stream({5.0, 5.0, 5.0}, [&](std::size_t i) {
    order.push_back("s" + std::to_string(i));
    if (i == 0) s.schedule_after(0.0, [&] { order.push_back("mid"); });
  });
  s.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"s0", "s1", "s2", "mid"}));
}

TEST(SimulatorStream, UnsortedTimesFireInTimeThenIndexOrder) {
  Simulator s;
  std::vector<std::pair<std::size_t, double>> fired;
  s.schedule_stream({30.0, 10.0, 20.0, 10.0},
                    [&](std::size_t i) { fired.emplace_back(i, s.now()); });
  s.run_all();
  EXPECT_EQ(fired, (std::vector<std::pair<std::size_t, double>>{
                       {1, 10.0}, {3, 10.0}, {2, 20.0}, {0, 30.0}}));
}

TEST(SimulatorStream, PastTimesClampToNow) {
  // Clamped elements tie at now and keep their index order, exactly as
  // schedule_at clamps them.
  Simulator s;
  s.schedule_at(10.0, [] {});
  s.run_all();
  std::vector<std::pair<std::size_t, double>> fired;
  s.schedule_stream({5.0, 12.0, 3.0}, [&](std::size_t i) { fired.emplace_back(i, s.now()); });
  s.run_all();
  EXPECT_EQ(fired, (std::vector<std::pair<std::size_t, double>>{
                       {0, 10.0}, {2, 10.0}, {1, 12.0}}));
}

TEST(SimulatorStream, CancelDropsElementsNotYetFired) {
  Simulator s;
  std::vector<std::size_t> fired;
  EventHandle handle =
      s.schedule_stream({1.0, 2.0, 3.0, 4.0}, [&](std::size_t i) { fired.push_back(i); });
  EXPECT_TRUE(handle.active());
  s.schedule_at(2.5, [&] { handle.cancel(); });
  s.run_all();
  EXPECT_EQ(fired, (std::vector<std::size_t>{0, 1}));
  EXPECT_FALSE(handle.active());
  EXPECT_EQ(s.executed(), 3u);  // two elements plus the cancelling event
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SimulatorStream, ElementCanCancelItsOwnStream) {
  Simulator s;
  std::vector<std::size_t> fired;
  EventHandle handle;
  handle = s.schedule_stream({1.0, 1.0, 2.0}, [&](std::size_t i) {
    fired.push_back(i);
    handle.cancel();
  });
  s.run_all();
  EXPECT_EQ(fired, (std::vector<std::size_t>{0}));
  EXPECT_EQ(s.executed(), 1u);
}

TEST(SimulatorStream, CountsOneExecutionPerElementAndHoldsOneHeapSlot) {
  Simulator s;
  std::size_t fired = 0;
  s.schedule_stream({1.0, 2.0, 2.0, 3.0, 4.0}, [&](std::size_t) { ++fired; });
  EXPECT_EQ(s.pending(), 1u);
  s.run_until(2.0);
  EXPECT_EQ(fired, 3u);
  EXPECT_EQ(s.executed(), 3u);
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_EQ(fired, 5u);
  EXPECT_EQ(s.executed(), 5u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SimulatorStream, EmptyStreamSchedulesNothing) {
  Simulator s;
  bool fired = false;
  s.schedule_stream({}, [&](std::size_t) { fired = true; });
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.step());
  EXPECT_FALSE(fired);
}

/// Firing log of one randomized schedule, built either with a stream or
/// with the schedule_at loop it stands for. Events are scheduled before,
/// after and during the stream's firings, at tied and distinct times,
/// after the clock has moved (so some stream times lie in the past).
std::vector<std::pair<std::string, double>> run_random_schedule(std::uint64_t seed,
                                                                 bool use_stream) {
  util::Rng rng(seed);
  Simulator s;
  std::vector<std::pair<std::string, double>> log;
  const auto note = [&](std::string label) { log.emplace_back(std::move(label), s.now()); };
  const auto grid_time = [&] { return static_cast<double>(rng.uniform_int(0, 12)); };
  for (int k = 0; k < 6; ++k) {
    const double at = grid_time();
    s.schedule_at(at, [&, k] { note("pre" + std::to_string(k)); });
  }
  s.run_until(static_cast<double>(rng.uniform_int(0, 4)));  // later times clamp
  std::vector<double> times;
  const auto count = static_cast<std::size_t>(rng.uniform_int(0, 40));
  for (std::size_t i = 0; i < count; ++i) times.push_back(grid_time());
  std::vector<int> reaction(count);  // -1: none; else the delay of a follow-up
  for (int& r : reaction) r = static_cast<int>(rng.uniform_int(-3, 2));
  const auto element = [&](std::size_t i) {
    note("e" + std::to_string(i));
    if (reaction[i] >= 0) {
      s.schedule_after(reaction[i], [&, i] { note("r" + std::to_string(i)); });
    }
  };
  if (use_stream) {
    s.schedule_stream(times, element);
  } else {
    for (std::size_t i = 0; i < count; ++i) s.schedule_at(times[i], [&, i] { element(i); });
  }
  for (int k = 0; k < 6; ++k) {
    const double at = grid_time();
    s.schedule_at(at, [&, k] { note("post" + std::to_string(k)); });
  }
  s.schedule_periodic(grid_time(), 3.0, [&] { note("tick"); });
  s.run_until(20.0);
  log.emplace_back("executed", static_cast<double>(s.executed()));
  return log;
}

TEST(SimulatorStream, FiresExactlyAsTheScheduleAtLoop) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ASSERT_EQ(run_random_schedule(seed, true), run_random_schedule(seed, false))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace aequus::sim
