#include "mobility/vehicular.hpp"

#include <gtest/gtest.h>

#include "common/angles.hpp"
#include "common/units.hpp"

namespace st::mobility {
namespace {

using namespace st::sim::literals;
using sim::Duration;
using sim::Time;

VehicularConfig straight_route() {
  VehicularConfig c;
  c.route = {{0.0, 10.0, 0.0}, {100.0, 10.0, 0.0}};
  c.speed_mps = mph_to_mps(20.0);
  c.yaw_wobble_rad = 0.0;
  return c;
}

TEST(Vehicular, PaperSpeed20Mph) {
  const VehicularRoute v(straight_route());
  const Pose p = v.pose_at(Time::zero() + 1_s);
  EXPECT_NEAR(p.position.x, 8.9408, 1e-6);
}

TEST(Vehicular, RouteLengthAndTraversalTime) {
  // 100 m at 20 mph: short of the end 0.1 s before the traversal time,
  // at the end from then on.
  const VehicularRoute v(straight_route());
  const auto x_at = [&](double s) {
    return v.pose_at(Time::zero() + Duration::seconds_of(s)).position.x;
  };
  const double traversal_s = 100.0 / mph_to_mps(20.0);
  EXPECT_LT(x_at(traversal_s - 0.1), 99.5);
  EXPECT_NEAR(x_at(traversal_s), 100.0, 1e-6);
}

TEST(Vehicular, StopsAtRouteEnd) {
  const VehicularRoute v(straight_route());
  const Pose p = v.pose_at(Time::zero() + 1000_s);
  EXPECT_NEAR(p.position.x, 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(v.motion_bound(Time::zero() + 1000_s).v_max_mps, 0.0);
}

TEST(Vehicular, OrientationFollowsTravel) {
  VehicularConfig c;
  c.route = {{0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, {10.0, 10.0, 0.0}};
  c.speed_mps = 10.0;
  c.yaw_wobble_rad = 0.0;
  const VehicularRoute v(c);
  // First leg heads +x, second leg +y.
  EXPECT_NEAR(v.pose_at(Time::zero() + Duration::seconds_of(0.5))
                  .orientation.yaw(),
              0.0, 1e-9);
  EXPECT_NEAR(v.pose_at(Time::zero() + Duration::seconds_of(1.5))
                  .orientation.yaw(),
              kPi / 2.0, 1e-9);
}

TEST(Vehicular, MultiSegmentPositions) {
  VehicularConfig c;
  c.route = {{0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, {10.0, 20.0, 0.0}};
  c.speed_mps = 10.0;
  c.yaw_wobble_rad = 0.0;
  const VehicularRoute v(c);
  const Pose mid = v.pose_at(Time::zero() + 2_s);  // 20 m: 10 m into leg 2
  EXPECT_NEAR(mid.position.x, 10.0, 1e-9);
  EXPECT_NEAR(mid.position.y, 10.0, 1e-9);
  EXPECT_NEAR(v.pose_at(Time::zero() + 3_s).position.y, 20.0, 1e-9);
}

TEST(Vehicular, DuplicateWaypointsSkipped) {
  VehicularConfig c;
  c.route = {{0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}};
  c.speed_mps = 5.0;
  const VehicularRoute v(c);
  EXPECT_NEAR(v.pose_at(Time::zero() + 1_s).position.x, 5.0, 1e-9);
  EXPECT_NEAR(v.pose_at(Time::zero() + 2_s).position.x, 10.0, 1e-9);
}

TEST(Vehicular, WobbleBoundedAndZeroMean) {
  VehicularConfig c = straight_route();
  c.yaw_wobble_rad = 0.02;
  c.yaw_wobble_hz = 0.7;
  const VehicularRoute v(c);
  double sum = 0.0;
  int n = 0;
  for (double s = 0.0; s < 10.0; s += 0.01) {
    const double yaw =
        v.pose_at(Time::zero() + Duration::seconds_of(s)).orientation.yaw();
    EXPECT_LE(std::fabs(yaw), 0.02 + 1e-9);
    sum += yaw;
    ++n;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.005);
}

TEST(Vehicular, InvalidConfigThrows) {
  VehicularConfig bad;
  bad.route = {{0.0, 0.0, 0.0}};
  bad.speed_mps = 5.0;
  EXPECT_THROW(VehicularRoute{bad}, std::invalid_argument);

  bad.route = {{0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}};
  bad.speed_mps = 0.0;
  EXPECT_THROW(VehicularRoute{bad}, std::invalid_argument);

  bad.route = {{0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}};
  bad.speed_mps = 5.0;
  EXPECT_THROW(VehicularRoute{bad}, std::invalid_argument);
}

TEST(Vehicular, NegativeTimeClampsToStart) {
  const VehicularRoute v(straight_route());
  EXPECT_NEAR(v.pose_at(Time::from_ns(-1'000'000)).position.x, 0.0, 1e-12);
}

}  // namespace
}  // namespace st::mobility
