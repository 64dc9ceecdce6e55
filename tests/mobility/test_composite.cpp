#include "mobility/composite.hpp"

#include <gtest/gtest.h>

#include "common/angles.hpp"
#include "mobility/walk.hpp"

namespace st::mobility {
namespace {

using namespace st::sim::literals;
using sim::Duration;
using sim::Time;

std::shared_ptr<const LinearWalk> plain_walk() {
  WalkConfig c;
  c.start = {0.0, 0.0, 0.0};
  c.heading_rad = 0.0;
  c.speed_mps = 1.0;
  c.sway_amplitude_m = 0.0;
  c.yaw_jitter_stddev_rad = 0.0;
  return std::make_shared<LinearWalk>(c, Duration::milliseconds(60'000), 1);
}

TEST(RotatedModel, PositionComesFromBase) {
  const RotatedModel m(plain_walk(), deg_to_rad(120.0));
  const Pose p = m.pose_at(Time::zero() + 5_s);
  EXPECT_NEAR(p.position.x, 5.0, 1e-9);
  EXPECT_NEAR(p.position.y, 0.0, 1e-9);
}

TEST(RotatedModel, YawIsBasePlusSpin) {
  const RotatedModel m(plain_walk(), deg_to_rad(90.0));
  EXPECT_NEAR(m.pose_at(Time::zero() + 1_s).orientation.yaw(),
              deg_to_rad(90.0), 1e-9);
  EXPECT_NEAR(m.pose_at(Time::zero() + 2_s).orientation.yaw(),
              wrap_pi(deg_to_rad(180.0)), 1e-9);
}

TEST(RotatedModel, ZeroRateIsTransparent) {
  const auto base = plain_walk();
  const RotatedModel m(base, 0.0);
  const Time t = Time::zero() + 7_s;
  EXPECT_EQ(m.pose_at(t).position, base->pose_at(t).position);
  EXPECT_NEAR(m.pose_at(t).orientation.yaw(),
              base->pose_at(t).orientation.yaw(), 1e-12);
}

TEST(RotatedModel, NullBaseThrows) {
  EXPECT_THROW(RotatedModel(nullptr, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace st::mobility
