// MotionBound certificates: sampled motion never outruns the bound.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/angles.hpp"
#include "common/units.hpp"
#include "mobility/composite.hpp"
#include "mobility/rotation.hpp"
#include "mobility/trace.hpp"
#include "mobility/vehicular.hpp"
#include "mobility/walk.hpp"

namespace st::mobility {
namespace {

using namespace st::sim::literals;
using sim::Duration;
using sim::Time;

/// Sample [from, until) every 100 µs (stopping at `horizon`) and check
/// the position speed and the yaw rate against the bound taken at `from`.
void expect_bound_holds(const MobilityModel& m, Time from, Time horizon) {
  const MotionBound b = m.motion_bound(from);
  ASSERT_GT(b.until, from);
  constexpr Duration kStep = 100_us;
  const double dt = kStep.seconds();
  Pose prev = m.pose_at(from);
  for (Time t = from + kStep; t < b.until && t < horizon; t = t + kStep) {
    const Pose p = m.pose_at(t);
    const double speed = distance(p.position, prev.position) / dt;
    const double turn = wrap_pi(p.orientation.yaw() - prev.orientation.yaw());
    EXPECT_LE(speed, b.v_max_mps + 1e-9) << t.ms();
    EXPECT_LE(std::fabs(turn) / dt, b.yaw_rate_max_rad_per_s + 1e-6) << t.ms();
    prev = p;
  }
}

TEST(MotionBound, WalkCoversSwayAndJitter) {
  WalkConfig c;
  c.sway_amplitude_m = 0.04;
  c.sway_frequency_hz = 1.8;
  const LinearWalk walk(c, 5_s, 3);
  const MotionBound b = walk.motion_bound(Time::zero());
  EXPECT_NEAR(b.v_max_mps, 1.4 + kTwoPi * 1.8 * 0.04, 1e-12);
  EXPECT_GT(b.yaw_rate_max_rad_per_s, 0.0);
  EXPECT_EQ(b.until, MotionBound::kForever);
  expect_bound_holds(walk, Time::zero(), Time::zero() + 5_s);
}

TEST(MotionBound, RotationTurnsAtItsRate) {
  RotationConfig c;
  c.rate_rad_per_s = -deg_to_rad(120.0);
  c.sweep_half_width_rad = deg_to_rad(40.0);
  const DeviceRotation rotation(c);
  const MotionBound b = rotation.motion_bound(Time::zero() + 1_s);
  EXPECT_EQ(b.v_max_mps, 0.0);
  EXPECT_DOUBLE_EQ(b.yaw_rate_max_rad_per_s, deg_to_rad(120.0));
  expect_bound_holds(rotation, Time::zero(), Time::zero() + 3_s);
}

TEST(MotionBound, VehicularEndsAtEachWaypoint) {
  VehicularConfig c;
  c.route = {{0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, {0.0, 0.0, 0.0}};
  c.speed_mps = 5.0;
  const VehicularRoute shuttle(c);
  // First leg ends at 2 s, a microsecond short of the reversal.
  const MotionBound first = shuttle.motion_bound(Time::zero() + 500_ms);
  EXPECT_DOUBLE_EQ(first.v_max_mps, 5.0);
  EXPECT_EQ(first.until, Time::zero() + 2_s - 1_us);
  EXPECT_GT(first.yaw_rate_max_rad_per_s, 0.0);  // the default wobble
  expect_bound_holds(shuttle, Time::zero() + 500_ms, Time::zero() + 4_s);
  // Exactly on the waypoint the heading jumps: no certificate.
  EXPECT_EQ(shuttle.motion_bound(Time::zero() + 2_s).until, Time::zero() + 2_s);
  expect_bound_holds(shuttle, Time::zero() + 2_s + 1_ms, Time::zero() + 4_s);
  // Parked at the end: only the wobble moves, forever.
  const MotionBound parked = shuttle.motion_bound(Time::zero() + 9_s);
  EXPECT_EQ(parked.v_max_mps, 0.0);
  EXPECT_EQ(parked.until, MotionBound::kForever);
}

TEST(MotionBound, RotatedModelAddsItsSpin) {
  WalkConfig c;
  auto base = std::make_shared<LinearWalk>(c, 5_s, 4);
  const RotatedModel rotated(base, -deg_to_rad(45.0));
  const MotionBound b = rotated.motion_bound(Time::zero());
  const MotionBound base_bound = base->motion_bound(Time::zero());
  EXPECT_DOUBLE_EQ(b.v_max_mps, base_bound.v_max_mps);
  EXPECT_DOUBLE_EQ(b.yaw_rate_max_rad_per_s,
                   base_bound.yaw_rate_max_rad_per_s + deg_to_rad(45.0));
  expect_bound_holds(rotated, Time::zero(), Time::zero() + 3_s);

  // Spinning an uncertified model certifies nothing.
  auto trace = std::make_shared<TracePlayback>(
      sample_trace(*base, Time::zero(), Time::zero() + 1_s, 10_ms));
  const RotatedModel spun_trace(trace, 1.0);
  EXPECT_EQ(spun_trace.motion_bound(Time::zero() + 5_ms).until,
            Time::zero() + 5_ms);
}

TEST(MotionBound, StationaryNeverMoves) {
  const Stationary still(Pose{});
  const MotionBound b = still.motion_bound(Time::zero() + 7_ms);
  EXPECT_EQ(b.v_max_mps, 0.0);
  EXPECT_EQ(b.yaw_rate_max_rad_per_s, 0.0);
  EXPECT_EQ(b.until, MotionBound::kForever);
}

TEST(MotionBound, TracePlaybackIsUncertified) {
  const Time t = Time::zero() + 250_ms;
  std::vector<TraceSample> samples;
  samples.push_back({Time::zero(), {0.0, 0.0, 0.0}, 0.0});
  samples.push_back({Time::zero() + 1_s, {1.0, 0.0, 0.0}, 0.0});
  const TracePlayback trace(std::move(samples));
  EXPECT_EQ(trace.motion_bound(t).until, t);
}

}  // namespace
}  // namespace st::mobility
