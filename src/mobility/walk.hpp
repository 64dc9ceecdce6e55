// Pedestrian walk model — the paper's primary scenario: a user walking at
// v = 1.4 m/s along the cell edge, 10 m from the base station.
//
// A straight constant-velocity path is decorated with the two artefacts of
// a human gait that matter to a beam tracker:
//  * lateral sway: sinusoidal displacement perpendicular to the walk
//    direction at step frequency (~1.8 Hz, ~4 cm amplitude);
//  * heading jitter: a slow random wander of the device yaw around the
//    walk direction (people do not hold phones rigidly), realised as a
//    pre-drawn Ornstein–Uhlenbeck sequence interpolated in time.
// Both change the body-frame angle to the base station — which is exactly
// the signal that forces adjacent-beam switches.
#pragma once

#include <cstdint>
#include <vector>

#include "mobility/model.hpp"

namespace st::mobility {

struct WalkConfig {
  Vec3 start{0.0, 0.0, 0.0};
  double heading_rad = 0.0;     ///< walk direction (world azimuth)
  double speed_mps = 1.4;       ///< paper: human walk 1.4 m/s
  double sway_amplitude_m = 0.04;
  double sway_frequency_hz = 1.8;
  /// Heading jitter OU process: stddev of the stationary distribution and
  /// its relaxation time. 0 stddev disables jitter.
  double yaw_jitter_stddev_rad = 0.10;  ///< ~6°
  double yaw_jitter_tau_s = 1.0;
  /// Device yaw offset relative to walk direction (a phone held in front
  /// of the user faces the walk direction; 0 by default).
  double device_yaw_offset_rad = 0.0;
};

class LinearWalk final : public MobilityModel {
 public:
  /// `horizon` bounds the pre-drawn jitter sequence; queries past it hold
  /// the last jitter value. `seed` fixes the jitter realisation.
  LinearWalk(const WalkConfig& config, sim::Duration horizon,
             std::uint64_t seed);

  [[nodiscard]] Pose pose_at(sim::Time t) const override;
  /// Speed plus the sway's peak lateral speed 2*pi*f*A; the steepest
  /// segment of the interpolated heading jitter. Never expires.
  [[nodiscard]] MotionBound motion_bound(sim::Time t) const override;

  [[nodiscard]] const WalkConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] double yaw_jitter_at(sim::Time t) const noexcept;

  WalkConfig config_;
  std::vector<double> jitter_;  ///< sampled every jitter_dt_
  sim::Duration jitter_dt_ = sim::Duration::milliseconds(50);
  double max_jitter_rate_ = 0.0;  ///< steepest jitter segment [rad/s]
};

}  // namespace st::mobility
