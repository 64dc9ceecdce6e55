#include "mobility/trace.hpp"

#include <gtest/gtest.h>

#include "common/angles.hpp"
#include "mobility/walk.hpp"

namespace st::mobility {
namespace {

using namespace st::sim::literals;
using sim::Duration;
using sim::Time;

std::vector<TraceSample> three_samples() {
  return {
      {Time::zero(), {0.0, 0.0, 0.0}, 0.0},
      {Time::zero() + 1_s, {2.0, 0.0, 0.0}, deg_to_rad(90.0)},
      {Time::zero() + 3_s, {2.0, 4.0, 0.0}, deg_to_rad(90.0)},
  };
}

TEST(TracePlayback, InterpolatesPositionsLinearly) {
  const TracePlayback trace(three_samples());
  const Pose mid = trace.pose_at(Time::zero() + 500_ms);
  EXPECT_NEAR(mid.position.x, 1.0, 1e-9);
  EXPECT_NEAR(mid.position.y, 0.0, 1e-9);
  const Pose later = trace.pose_at(Time::zero() + 2_s);
  EXPECT_NEAR(later.position.x, 2.0, 1e-9);
  EXPECT_NEAR(later.position.y, 2.0, 1e-9);
}

TEST(TracePlayback, InterpolatesYawAlongShortArc) {
  std::vector<TraceSample> samples = {
      {Time::zero(), {0.0, 0.0, 0.0}, deg_to_rad(170.0)},
      {Time::zero() + 1_s, {0.0, 0.0, 0.0}, deg_to_rad(-170.0)},
  };
  const TracePlayback trace(std::move(samples));
  const double yaw = trace.pose_at(Time::zero() + 500_ms).orientation.yaw();
  EXPECT_NEAR(angular_distance(yaw, deg_to_rad(180.0)), 0.0, 1e-9);
}

TEST(TracePlayback, ClampsOutsideRange) {
  const TracePlayback trace(three_samples());
  EXPECT_EQ(trace.pose_at(Time::from_ns(-1'000'000'000)).position,
            (Vec3{0.0, 0.0, 0.0}));
  EXPECT_EQ(trace.pose_at(Time::zero() + 100_s).position,
            (Vec3{2.0, 4.0, 0.0}));
}

TEST(TracePlayback, ExactSampleTimesHitSamples) {
  const TracePlayback trace(three_samples());
  EXPECT_NEAR(trace.pose_at(Time::zero() + 1_s).position.x, 2.0, 1e-12);
  EXPECT_NEAR(trace.pose_at(Time::zero() + 1_s).orientation.yaw(),
              deg_to_rad(90.0), 1e-12);
}

TEST(TracePlayback, ValidationRejectsBadTraces) {
  EXPECT_THROW(TracePlayback({}), std::invalid_argument);
  std::vector<TraceSample> unordered = {
      {Time::zero() + 1_s, {0.0, 0.0, 0.0}, 0.0},
      {Time::zero(), {1.0, 0.0, 0.0}, 0.0},
  };
  EXPECT_THROW(TracePlayback(std::move(unordered)), std::invalid_argument);
  std::vector<TraceSample> duplicate = {
      {Time::zero(), {0.0, 0.0, 0.0}, 0.0},
      {Time::zero(), {1.0, 0.0, 0.0}, 0.0},
  };
  EXPECT_THROW(TracePlayback(std::move(duplicate)), std::invalid_argument);
}

TEST(TracePlayback, CsvRoundTrip) {
  const std::vector<TraceSample> samples = three_samples();
  const std::string csv = trace_to_csv(samples);
  const TracePlayback trace = TracePlayback::from_csv_text(csv);
  EXPECT_EQ(trace.sample_count(), samples.size());
  for (double s = 0.0; s <= 3.0; s += 0.25) {
    const Time t = Time::zero() + Duration::seconds_of(s);
    const TracePlayback direct(three_samples());
    EXPECT_NEAR(trace.pose_at(t).position.x, direct.pose_at(t).position.x,
                1e-5);
    EXPECT_NEAR(trace.pose_at(t).position.y, direct.pose_at(t).position.y,
                1e-5);
  }
}

TEST(TracePlayback, CsvToleratesHeaderAndComments) {
  const std::string csv =
      "t_s,x,y,z,yaw_deg\n"
      "# a comment\n"
      "0.0,1.0,2.0,0.0,45.0\n"
      "\n"
      "1.0,2.0,2.0,0.0,45.0\n";
  const TracePlayback trace = TracePlayback::from_csv_text(csv);
  EXPECT_EQ(trace.sample_count(), 2U);
  EXPECT_NEAR(trace.pose_at(Time::zero()).orientation.yaw(), deg_to_rad(45.0),
              1e-9);
}

TEST(TracePlayback, CsvRejectsMalformedRows) {
  EXPECT_THROW(TracePlayback::from_csv_text("0.0,1.0\nbad,row\n"),
               std::invalid_argument);
}

TEST(TracePlayback, ReplaysSyntheticModelExactlyAtSamplePoints) {
  WalkConfig walk;
  walk.start = {3.0, 1.0, 0.0};
  walk.heading_rad = 0.4;
  walk.speed_mps = 1.4;
  walk.sway_amplitude_m = 0.04;
  walk.yaw_jitter_stddev_rad = 0.1;
  const LinearWalk model(walk, 10_s, 42);
  const auto samples =
      sample_trace(model, Time::zero(), Time::zero() + 10_s, 100_ms);
  const TracePlayback replay(samples);
  for (double s = 0.0; s <= 10.0; s += 0.1) {
    const Time t = Time::zero() + Duration::seconds_of(s);
    EXPECT_NEAR(replay.pose_at(t).position.x, model.pose_at(t).position.x,
                1e-6);
    EXPECT_NEAR(replay.pose_at(t).position.y, model.pose_at(t).position.y,
                1e-6);
  }
}

TEST(SampleTrace, ValidationAndBounds) {
  Pose pose;
  const Stationary still(pose);
  EXPECT_THROW(
      sample_trace(still, Time::zero(), Time::zero() + 1_s, Duration{}),
      std::invalid_argument);
  EXPECT_THROW(
      sample_trace(still, Time::zero() + 1_s, Time::zero(), 100_ms),
      std::invalid_argument);
  const auto samples =
      sample_trace(still, Time::zero(), Time::zero() + 1_s, 250_ms);
  EXPECT_EQ(samples.size(), 5U);  // 0, 250, 500, 750, 1000 ms
}

}  // namespace
}  // namespace st::mobility
