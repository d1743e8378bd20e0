#include "sim/environment.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace gpunion::sim {
namespace {

TEST(EnvironmentTest, ClockAdvancesWithEvents) {
  Environment env;
  EXPECT_DOUBLE_EQ(env.now(), 0.0);
  double seen = -1;
  env.schedule_at(5.0, [&] { seen = env.now(); });
  env.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(env.now(), 5.0);
}

TEST(EnvironmentTest, ScheduleAfterIsRelative) {
  Environment env;
  std::vector<double> times;
  env.schedule_at(10.0, [&] {
    env.schedule_after(2.5, [&] { times.push_back(env.now()); });
  });
  env.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 12.5);
}

TEST(EnvironmentTest, RunUntilAdvancesClockExactly) {
  Environment env;
  int fired = 0;
  env.schedule_at(1.0, [&] { ++fired; });
  env.schedule_at(100.0, [&] { ++fired; });
  env.run_until(50.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(env.now(), 50.0);
  EXPECT_EQ(env.pending_events(), 1u);
}

TEST(EnvironmentTest, RunUntilIncludesBoundary) {
  Environment env;
  int fired = 0;
  env.schedule_at(10.0, [&] { ++fired; });
  env.run_until(10.0);
  EXPECT_EQ(fired, 1);
}

TEST(EnvironmentTest, CancelStopsEvent) {
  Environment env;
  bool fired = false;
  const EventId id = env.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(env.cancel(id));
  env.run();
  EXPECT_FALSE(fired);
}

TEST(EnvironmentTest, RunWithLimit) {
  Environment env;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    env.schedule_at(i, [&] { ++fired; });
  }
  EXPECT_EQ(env.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(EnvironmentTest, EventsScheduledDuringRunExecute) {
  Environment env;
  std::vector<int> order;
  env.schedule_at(1.0, [&] {
    order.push_back(1);
    env.schedule_at(2.0, [&] { order.push_back(2); });
  });
  env.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EnvironmentTest, ForkRngDeterministic) {
  Environment env1(99), env2(99);
  auto a = env1.fork_rng("x");
  auto b = env2.fork_rng("x");
  EXPECT_EQ(a.next_u64(), b.next_u64());
  auto c = env1.fork_rng("y");
  EXPECT_NE(env1.fork_rng("x").next_u64(), c.next_u64());
}

TEST(PeriodicTimerTest, TicksAtPeriod) {
  Environment env;
  std::vector<double> ticks;
  PeriodicTimer timer(env, 2.0, [&] { ticks.push_back(env.now()); });
  timer.start();
  env.run_until(7.0);
  EXPECT_EQ(ticks, (std::vector<double>{2.0, 4.0, 6.0}));
}

TEST(PeriodicTimerTest, StartAfterInitialDelay) {
  Environment env;
  std::vector<double> ticks;
  PeriodicTimer timer(env, 5.0, [&] { ticks.push_back(env.now()); });
  timer.start_after(0);
  env.run_until(11.0);
  EXPECT_EQ(ticks, (std::vector<double>{0.0, 5.0, 10.0}));
}

TEST(PeriodicTimerTest, StopFromWithinCallback) {
  Environment env;
  int ticks = 0;
  PeriodicTimer timer(env, 1.0, [&] {
    if (++ticks == 3) timer.stop();
  });
  timer.start();
  env.run_until(10.0);
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimerTest, NonPositivePeriodThrows) {
  // Checked in release builds too: a 0 s timer would re-arm at now()
  // forever and run_until would never return.
  Environment env;
  EXPECT_THROW(PeriodicTimer(env, 0.0, [] {}), std::invalid_argument);
  EXPECT_THROW(PeriodicTimer(env, -1.0, [] {}), std::invalid_argument);
  EXPECT_EQ(env.pending_events(), 0u);
}

TEST(PeriodicTimerTest, DestructorCancels) {
  Environment env;
  int ticks = 0;
  {
    PeriodicTimer timer(env, 1.0, [&] { ++ticks; });
    timer.start();
    env.run_until(2.5);
  }
  env.run_until(10.0);
  EXPECT_EQ(ticks, 2);
}

}  // namespace
}  // namespace gpunion::sim
