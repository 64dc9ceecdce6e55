#include "mobility/rotation.hpp"

#include <cmath>
#include <stdexcept>

#include "common/angles.hpp"

namespace st::mobility {

DeviceRotation::DeviceRotation(const RotationConfig& config)
    : config_(config) {
  if (!std::isfinite(config.rate_rad_per_s)) {
    throw std::invalid_argument("DeviceRotation: rate must be finite");
  }
}

double DeviceRotation::yaw_at(sim::Time t) const noexcept {
  const double s = std::max(0.0, t.seconds());
  const double advance = config_.rate_rad_per_s * s;
  if (!(config_.sweep_half_width_rad > 0.0) ||
      !std::isfinite(config_.sweep_half_width_rad)) {
    return wrap_pi(config_.initial_yaw_rad + advance);
  }
  // Triangle wave between -half and +half around the initial yaw.
  const double half = config_.sweep_half_width_rad;
  const double period = 4.0 * half;  // there-and-back in yaw units
  double phase = std::fmod(std::fabs(advance), period);
  double offset = 0.0;
  if (phase < half) {
    offset = phase;
  } else if (phase < 3.0 * half) {
    offset = 2.0 * half - phase;
  } else {
    offset = phase - 4.0 * half;
  }
  if (config_.rate_rad_per_s < 0.0) {
    offset = -offset;
  }
  return wrap_pi(config_.initial_yaw_rad + offset);
}

MotionBound DeviceRotation::motion_bound(sim::Time) const {
  return {.yaw_rate_max_rad_per_s = std::fabs(config_.rate_rad_per_s),
          .until = MotionBound::kForever};
}

Pose DeviceRotation::pose_at(sim::Time t) const {
  Pose pose;
  pose.position = config_.position;
  pose.orientation = Quaternion::from_yaw(yaw_at(t));
  return pose;
}

}  // namespace st::mobility
