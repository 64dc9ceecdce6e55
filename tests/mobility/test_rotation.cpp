#include "mobility/rotation.hpp"

#include <gtest/gtest.h>

#include "common/angles.hpp"

namespace st::mobility {
namespace {

using namespace st::sim::literals;
using sim::Duration;
using sim::Time;

TEST(DeviceRotation, PositionFixedSpeedZero) {
  RotationConfig c;
  c.position = {4.0, 5.0, 0.0};
  c.rate_rad_per_s = deg_to_rad(120.0);
  const DeviceRotation rot(c);
  for (double s = 0.0; s < 5.0; s += 0.5) {
    const Pose p = rot.pose_at(Time::zero() + Duration::seconds_of(s));
    EXPECT_EQ(p.position, (Vec3{4.0, 5.0, 0.0}));
  }
}

TEST(DeviceRotation, PaperRate120DegPerSecond) {
  RotationConfig c;
  c.rate_rad_per_s = deg_to_rad(120.0);
  const DeviceRotation rot(c);
  EXPECT_NEAR(rot.yaw_at(Time::zero() + 1_s), wrap_pi(deg_to_rad(120.0)),
              1e-9);
  // Full revolution every 3 s.
  EXPECT_NEAR(angular_distance(rot.yaw_at(Time::zero() + 3_s),
                               rot.yaw_at(Time::zero())),
              0.0, 1e-9);
}

TEST(DeviceRotation, InitialYawHonoured) {
  RotationConfig c;
  c.initial_yaw_rad = 0.5;
  c.rate_rad_per_s = 1.0;
  const DeviceRotation rot(c);
  EXPECT_NEAR(rot.yaw_at(Time::zero()), 0.5, 1e-12);
  EXPECT_NEAR(rot.yaw_at(Time::zero() + 1_s), 1.5, 1e-12);
}

TEST(DeviceRotation, NegativeRateSpinsBackwards) {
  RotationConfig c;
  c.rate_rad_per_s = -1.0;
  const DeviceRotation rot(c);
  EXPECT_NEAR(rot.yaw_at(Time::zero() + 1_s), -1.0, 1e-12);
}

TEST(DeviceRotation, SweepReversesAtLimits) {
  RotationConfig c;
  c.rate_rad_per_s = 1.0;
  c.sweep_half_width_rad = 0.5;
  const DeviceRotation rot(c);
  // Triangle wave: up to +0.5 at t=0.5, back to 0 at t=1, down to -0.5 at
  // t=1.5, back to 0 at t=2.
  EXPECT_NEAR(rot.yaw_at(Time::zero() + Duration::seconds_of(0.5)), 0.5, 1e-9);
  EXPECT_NEAR(rot.yaw_at(Time::zero() + 1_s), 0.0, 1e-9);
  EXPECT_NEAR(rot.yaw_at(Time::zero() + Duration::seconds_of(1.5)), -0.5,
              1e-9);
  EXPECT_NEAR(rot.yaw_at(Time::zero() + 2_s), 0.0, 1e-9);
}

TEST(DeviceRotation, SweepNeverExceedsLimits) {
  RotationConfig c;
  c.rate_rad_per_s = deg_to_rad(120.0);
  c.sweep_half_width_rad = deg_to_rad(60.0);
  c.initial_yaw_rad = 0.3;
  const DeviceRotation rot(c);
  for (double s = 0.0; s < 20.0; s += 0.01) {
    const double offset = angular_difference(
        0.3, rot.yaw_at(Time::zero() + Duration::seconds_of(s)));
    EXPECT_LE(std::fabs(offset), deg_to_rad(60.0) + 1e-9);
  }
}

TEST(DeviceRotation, YawRateMatchesConfig) {
  RotationConfig c;
  c.rate_rad_per_s = deg_to_rad(120.0);
  const DeviceRotation rot(c);
  const double dt = 0.01;
  for (double s = 0.0; s < 2.9; s += 0.1) {
    const double y1 = rot.yaw_at(Time::zero() + Duration::seconds_of(s));
    const double y2 = rot.yaw_at(Time::zero() + Duration::seconds_of(s + dt));
    EXPECT_NEAR(angular_difference(y1, y2) / dt, deg_to_rad(120.0), 1e-6);
  }
}

TEST(DeviceRotation, NonFiniteRateThrows) {
  RotationConfig c;
  c.rate_rad_per_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(DeviceRotation{c}, std::invalid_argument);
}

TEST(Stationary, HoldsPoseForever) {
  Pose pose;
  pose.position = {1.0, 2.0, 3.0};
  pose.orientation = Quaternion::from_yaw(0.7);
  const Stationary s(pose);
  const Pose later = s.pose_at(Time::zero() + 1000_s);
  EXPECT_EQ(later.position, pose.position);
  EXPECT_NEAR(later.orientation.yaw(), 0.7, 1e-12);
}

}  // namespace
}  // namespace st::mobility
