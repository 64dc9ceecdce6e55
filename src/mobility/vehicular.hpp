// Vehicular mobility — the paper's third scenario: the mobile moving at
// v = 20 mph (≈ 8.94 m/s) past roadside cells. The vehicle follows a
// piecewise-linear route of waypoints at constant speed; orientation
// follows the direction of travel (the device is vehicle-mounted), with
// an optional small body-roll yaw wobble.
#pragma once

#include <cstdint>
#include <vector>

#include "mobility/model.hpp"

namespace st::mobility {

struct VehicularConfig {
  std::vector<Vec3> route;        ///< >= 2 waypoints
  double speed_mps;               ///< paper: mph_to_mps(20.0)
  double yaw_wobble_rad = 0.02;   ///< sinusoidal wobble amplitude (~1°)
  double yaw_wobble_hz = 0.7;
};

class VehicularRoute final : public MobilityModel {
 public:
  explicit VehicularRoute(const VehicularConfig& config);

  [[nodiscard]] Pose pose_at(sim::Time t) const override;
  /// Speed and the wobble's peak yaw rate, until the end of the current
  /// segment: the heading jumps at every waypoint (a ping-pong shuttle
  /// reverses there). Parked at the route's end, the bound never expires.
  [[nodiscard]] MotionBound motion_bound(sim::Time t) const override;

 private:
  struct Segment {
    Vec3 from;
    Vec3 to;
    double start_m;   ///< cumulative distance at segment start
    double length_m;
    double heading_rad;
  };

  /// Distance along the route at `t`, clamped to the route.
  [[nodiscard]] double travelled_m(sim::Time t) const noexcept;
  /// The active segment at a travelled distance (the earlier one exactly
  /// on a waypoint).
  [[nodiscard]] const Segment& segment_at(double travelled) const noexcept;

  VehicularConfig config_;
  std::vector<Segment> segments_;
  double total_length_m_ = 0.0;
};

}  // namespace st::mobility
