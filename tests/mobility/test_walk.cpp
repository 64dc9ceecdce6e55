#include "mobility/walk.hpp"

#include <gtest/gtest.h>

#include "common/angles.hpp"

namespace st::mobility {
namespace {

using namespace st::sim::literals;
using sim::Time;

WalkConfig plain_walk() {
  WalkConfig c;
  c.start = {2.0, 3.0, 0.0};
  c.heading_rad = 0.0;
  c.speed_mps = 1.4;
  c.sway_amplitude_m = 0.0;
  c.yaw_jitter_stddev_rad = 0.0;
  return c;
}

TEST(LinearWalk, AdvancesAtConfiguredSpeed) {
  const LinearWalk walk(plain_walk(), 60_s, 1);
  const Pose p0 = walk.pose_at(Time::zero());
  const Pose p10 = walk.pose_at(Time::zero() + 10_s);
  EXPECT_NEAR(p0.position.x, 2.0, 1e-12);
  EXPECT_NEAR(p10.position.x, 2.0 + 14.0, 1e-9);
  EXPECT_NEAR(p10.position.y, 3.0, 1e-9);
}

TEST(LinearWalk, HeadingRotatesPath) {
  WalkConfig c = plain_walk();
  c.heading_rad = kPi / 2.0;  // +y
  const LinearWalk walk(c, 60_s, 1);
  const Pose p = walk.pose_at(Time::zero() + 10_s);
  EXPECT_NEAR(p.position.x, 2.0, 1e-9);
  EXPECT_NEAR(p.position.y, 3.0 + 14.0, 1e-9);
}

TEST(LinearWalk, DeviceFacesWalkDirection) {
  WalkConfig c = plain_walk();
  c.heading_rad = 0.7;
  const LinearWalk walk(c, 60_s, 1);
  EXPECT_NEAR(walk.pose_at(Time::zero() + 5_s).orientation.yaw(), 0.7, 1e-9);
}

TEST(LinearWalk, DeviceYawOffsetApplied) {
  WalkConfig c = plain_walk();
  c.device_yaw_offset_rad = 0.5;
  const LinearWalk walk(c, 60_s, 1);
  EXPECT_NEAR(walk.pose_at(Time::zero() + 1_s).orientation.yaw(), 0.5, 1e-9);
}

TEST(LinearWalk, SwayIsPerpendicularAndBounded) {
  WalkConfig c = plain_walk();
  c.sway_amplitude_m = 0.04;
  c.sway_frequency_hz = 1.8;
  const LinearWalk walk(c, 60_s, 1);
  double max_dev = 0.0;
  for (double s = 0.0; s < 10.0; s += 0.01) {
    const Pose p = walk.pose_at(Time::zero() + sim::Duration::seconds_of(s));
    max_dev = std::max(max_dev, std::fabs(p.position.y - 3.0));
    // Forward progress unaffected by sway (tolerance covers the integer
    // nanosecond quantisation of Duration::seconds_of).
    EXPECT_NEAR(p.position.x, 2.0 + 1.4 * s, 1e-6);
  }
  EXPECT_NEAR(max_dev, 0.04, 1e-3);
}

TEST(LinearWalk, JitterIsDeterministicInSeed) {
  WalkConfig c = plain_walk();
  c.yaw_jitter_stddev_rad = 0.1;
  const LinearWalk a(c, 30_s, 42);
  const LinearWalk b(c, 30_s, 42);
  const LinearWalk other(c, 30_s, 43);
  bool any_difference = false;
  for (double s = 0.0; s < 30.0; s += 0.25) {
    const Time t = Time::zero() + sim::Duration::seconds_of(s);
    EXPECT_DOUBLE_EQ(a.pose_at(t).orientation.yaw(),
                     b.pose_at(t).orientation.yaw());
    if (std::fabs(a.pose_at(t).orientation.yaw() -
                  other.pose_at(t).orientation.yaw()) > 1e-12) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(LinearWalk, JitterStaysModerate) {
  WalkConfig c = plain_walk();
  c.yaw_jitter_stddev_rad = 0.1;
  const LinearWalk walk(c, 30_s, 5);
  for (double s = 0.0; s < 30.0; s += 0.05) {
    const double yaw =
        walk.pose_at(Time::zero() + sim::Duration::seconds_of(s))
            .orientation.yaw();
    EXPECT_LT(std::fabs(yaw), 5.0 * 0.1);  // 5 sigma
  }
}

TEST(LinearWalk, JitterIsContinuous) {
  WalkConfig c = plain_walk();
  c.yaw_jitter_stddev_rad = 0.1;
  c.yaw_jitter_tau_s = 1.0;
  const LinearWalk walk(c, 10_s, 6);
  double last = walk.pose_at(Time::zero()).orientation.yaw();
  for (double s = 0.001; s < 10.0; s += 0.001) {
    const double yaw =
        walk.pose_at(Time::zero() + sim::Duration::seconds_of(s))
            .orientation.yaw();
    EXPECT_LT(std::fabs(yaw - last), 0.05);
    last = yaw;
  }
}

TEST(LinearWalk, NegativeTimeClampsToStart) {
  const LinearWalk walk(plain_walk(), 10_s, 1);
  const Pose p = walk.pose_at(Time::from_ns(-5'000'000));
  EXPECT_NEAR(p.position.x, 2.0, 1e-12);
}

TEST(LinearWalk, QueriesPastHorizonHoldLastJitter) {
  WalkConfig c = plain_walk();
  c.yaw_jitter_stddev_rad = 0.1;
  const LinearWalk walk(c, 1_s, 7);
  // Positions keep extrapolating; jitter just freezes — no crash, no NaN.
  const Pose p = walk.pose_at(Time::zero() + 100_s);
  EXPECT_NEAR(p.position.x, 2.0 + 140.0, 1e-6);
  EXPECT_TRUE(std::isfinite(p.orientation.yaw()));
}

TEST(LinearWalk, InvalidConfigThrows) {
  WalkConfig bad = plain_walk();
  bad.speed_mps = -1.0;
  EXPECT_THROW(LinearWalk(bad, 1_s, 1), std::invalid_argument);
  bad = plain_walk();
  bad.yaw_jitter_tau_s = 0.0;
  EXPECT_THROW(LinearWalk(bad, 1_s, 1), std::invalid_argument);
  bad = plain_walk();
  bad.yaw_jitter_stddev_rad = -0.5;
  EXPECT_THROW(LinearWalk(bad, 1_s, 1), std::invalid_argument);
}

}  // namespace
}  // namespace st::mobility
