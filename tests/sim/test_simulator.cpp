#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace st::sim {
namespace {

using namespace st::sim::literals;

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<double> seen;
  sim.schedule_at(Time::zero() + 10_ms, [&] { seen.push_back(sim.now().ms()); });
  sim.schedule_at(Time::zero() + 5_ms, [&] { seen.push_back(sim.now().ms()); });
  sim.run_until(Time::zero() + 100_ms);
  EXPECT_EQ(seen, (std::vector<double>{5.0, 10.0}));
  EXPECT_EQ(sim.now(), Time::zero() + 100_ms);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  Time fired{};
  sim.schedule_at(Time::zero() + 10_ms, [&] {
    sim.schedule_after(5_ms, [&] { fired = sim.now(); });
  });
  sim.run_until(Time::zero() + 100_ms);
  EXPECT_EQ(fired, Time::zero() + 15_ms);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  Time fired{};
  sim.schedule_at(Time::zero() + 10_ms, [&] {
    sim.schedule_at(Time::zero() + 1_ms, [&] { fired = sim.now(); });
  });
  sim.run_until(Time::zero() + 100_ms);
  EXPECT_EQ(fired, Time::zero() + 10_ms);
}

TEST(Simulator, NegativeDelayClampsToZero) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(Duration::milliseconds(-5), [&] { fired = true; });
  sim.run_until(Time::zero() + 1_ms);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
  Simulator sim;
  bool late_fired = false;
  sim.schedule_at(Time::zero() + 200_ms, [&] { late_fired = true; });
  sim.run_until(Time::zero() + 100_ms);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.now(), Time::zero() + 100_ms);
  // Continuing later picks the event up.
  sim.run_until(Time::zero() + 300_ms);
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, EventAtExactBoundaryFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(Time::zero() + 100_ms, [&] { fired = true; });
  sim.run_until(Time::zero() + 100_ms);
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelOneShot) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(Time::zero() + 10_ms, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_until(Time::zero() + 100_ms);
  EXPECT_FALSE(fired);
}

TEST(Simulator, PeriodicFiresAtPeriod) {
  Simulator sim;
  std::vector<double> ticks;
  sim.schedule_periodic(Time::zero() + 5_ms, 10_ms,
                        [&] { ticks.push_back(sim.now().ms()); });
  sim.run_until(Time::zero() + 36_ms);
  EXPECT_EQ(ticks, (std::vector<double>{5.0, 15.0, 25.0, 35.0}));
}

TEST(Simulator, DestroyingSimulatorReleasesPeriodicChains) {
  // Counts live copies of a capture: every one must be gone once the
  // simulator is, whether its chain ran or never fired.
  struct Probe {
    int* live;
    explicit Probe(int* counter) : live(counter) { ++*live; }
    Probe(const Probe& other) : live(other.live) { ++*live; }
    Probe& operator=(const Probe&) = delete;
    ~Probe() { --*live; }
  };
  int live = 0;
  {
    Simulator sim;
    const Probe probe(&live);
    sim.schedule_periodic(Time::zero(), 10_ms, [probe] {});
    sim.schedule_periodic(Time::zero() + 1000_ms, 10_ms, [probe] {});
    sim.run_until(Time::zero() + 50_ms);
  }
  EXPECT_EQ(live, 0);
}

TEST(Simulator, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(Time::zero() + i * 1_ms, [] {});
  }
  sim.run_until(Time::zero() + 10_ms);
  EXPECT_EQ(sim.events_executed(), 5U);
}

TEST(Simulator, StepExecutesSingleEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::zero() + 1_ms, [&] { ++fired; });
  sim.schedule_at(Time::zero() + 2_ms, [&] { ++fired; });
  EXPECT_TRUE(sim.step(Time::zero() + 10_ms));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step(Time::zero() + 10_ms));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step(Time::zero() + 10_ms));
}

TEST(Simulator, IdleReflectsQueue) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  sim.schedule_at(Time::zero() + 1_ms, [] {});
  EXPECT_FALSE(sim.idle());
  sim.run_until(Time::zero() + 2_ms);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, EngineStatsTrackExecutionAndQueueDepth) {
  Simulator sim;
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(Time::zero() + i * 1_ms, [] {});
  }
  // All eight are pending at once before anything dispatches.
  sim.run_until(Time::zero() + 20_ms);
  const EngineStats& stats = sim.stats();
  EXPECT_EQ(stats.events_executed, 8U);
  EXPECT_GE(stats.queue_depth_hwm, 8U);
  EXPECT_DOUBLE_EQ(stats.sim_seconds, 0.02);
  EXPECT_GE(stats.wall_seconds, 0.0);
}

TEST(Simulator, QueueDepthHwmCountsOnlyLiveEvents) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 1; i <= 5; ++i) {
    ids.push_back(sim.schedule_at(Time::zero() + i * 1_ms, [] {}));
  }
  EXPECT_EQ(sim.stats().queue_depth_hwm, 5U);
  // Three cancels leave two live events; two more schedules make four,
  // which does not pass the mark of five.
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_TRUE(sim.cancel(ids[i]));
  }
  sim.schedule_at(Time::zero() + 6_ms, [] {});
  sim.schedule_at(Time::zero() + 7_ms, [] {});
  EXPECT_EQ(sim.stats().queue_depth_hwm, 5U);
  sim.schedule_at(Time::zero() + 8_ms, [] {});
  sim.schedule_at(Time::zero() + 9_ms, [] {});
  EXPECT_EQ(sim.stats().queue_depth_hwm, 6U);
  sim.run_until(Time::zero() + 20_ms);
  EXPECT_EQ(sim.stats().events_executed, 6U);
  EXPECT_EQ(sim.stats().queue_depth_hwm, 6U);
}

TEST(Simulator, EngineStatsAccumulateAcrossRunCalls) {
  Simulator sim;
  sim.schedule_at(Time::zero() + 1_ms, [] {});
  sim.run_until(Time::zero() + 10_ms);
  sim.schedule_at(Time::zero() + 15_ms, [] {});
  sim.run_until(Time::zero() + 20_ms);
  EXPECT_EQ(sim.stats().events_executed, 2U);
  EXPECT_DOUBLE_EQ(sim.stats().sim_seconds, 0.02);
}

TEST(EngineStats, WallPerSimSecondGuardsAgainstZero) {
  EngineStats stats;
  EXPECT_DOUBLE_EQ(stats.wall_per_sim_second(), 0.0);
  stats.wall_seconds = 0.5;
  stats.sim_seconds = 2.0;
  EXPECT_DOUBLE_EQ(stats.wall_per_sim_second(), 0.25);
}

TEST(Simulator, DispatchHistogramReceivesOneSamplePerEvent) {
  Simulator sim;
  LogLinearHistogram dispatch_us;
  sim.set_dispatch_histogram(&dispatch_us);
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(Time::zero() + i * 1_ms, [] {});
  }
  sim.run_until(Time::zero() + 10_ms);
  EXPECT_EQ(dispatch_us.count(), 5U);
  EXPECT_GE(dispatch_us.min(), 0.0);

  // Detaching stops the sampling without touching the histogram.
  sim.set_dispatch_histogram(nullptr);
  sim.schedule_at(Time::zero() + 15_ms, [] {});
  sim.run_until(Time::zero() + 20_ms);
  EXPECT_EQ(dispatch_us.count(), 5U);
}

TEST(Simulator, CascadedEventsSameTimeRunThisCall) {
  // An event scheduling another event at the same timestamp: the child
  // must run within the same run_until.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Time::zero() + 5_ms, [&] {
    order.push_back(1);
    sim.schedule_at(sim.now(), [&] { order.push_back(2); });
  });
  sim.run_until(Time::zero() + 5_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace st::sim
