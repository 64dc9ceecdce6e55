#include "mobility/walk.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/angles.hpp"
#include "common/rng.hpp"

namespace st::mobility {

LinearWalk::LinearWalk(const WalkConfig& config, sim::Duration horizon,
                       std::uint64_t seed)
    : config_(config) {
  if (config.speed_mps < 0.0) {
    throw std::invalid_argument("LinearWalk: speed must be >= 0");
  }
  if (config.yaw_jitter_stddev_rad < 0.0 || config.yaw_jitter_tau_s <= 0.0) {
    throw std::invalid_argument("LinearWalk: invalid jitter parameters");
  }

  // Pre-draw the OU yaw-jitter path: x' = -x/tau + noise, discretised at
  // jitter_dt_ with exact stationary statistics.
  const auto steps =
      static_cast<std::size_t>(horizon / jitter_dt_) + 2;
  jitter_.reserve(steps);
  Rng rng(seed);
  const double sigma = config.yaw_jitter_stddev_rad;
  if (sigma == 0.0) {
    jitter_.assign(steps, 0.0);
    return;
  }
  const double dt = jitter_dt_.seconds();
  const double rho = std::exp(-dt / config.yaw_jitter_tau_s);
  const double innovation = sigma * std::sqrt(1.0 - rho * rho);
  double x = rng.normal(0.0, sigma);
  jitter_.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    jitter_.push_back(x);
    x = rho * x + rng.normal(0.0, innovation);
  }
  for (std::size_t i = 0; i + 1 < jitter_.size(); ++i) {
    const double rate = std::fabs(jitter_[i + 1] - jitter_[i]) / dt;
    max_jitter_rate_ = std::max(max_jitter_rate_, rate);
  }
}

double LinearWalk::yaw_jitter_at(sim::Time t) const noexcept {
  if (jitter_.empty()) {
    return 0.0;
  }
  const double pos = std::max(0.0, t.seconds() / jitter_dt_.seconds());
  const auto idx = static_cast<std::size_t>(pos);
  if (idx + 1 >= jitter_.size()) {
    return jitter_.back();
  }
  const double frac = pos - static_cast<double>(idx);
  return jitter_[idx] + frac * (jitter_[idx + 1] - jitter_[idx]);
}

Pose LinearWalk::pose_at(sim::Time t) const {
  const double s = std::max(0.0, t.seconds());
  const Vec3 forward{std::cos(config_.heading_rad), std::sin(config_.heading_rad),
                     0.0};
  const Vec3 lateral{-forward.y, forward.x, 0.0};

  const double sway =
      config_.sway_amplitude_m *
      std::sin(kTwoPi * config_.sway_frequency_hz * s);

  Pose pose;
  pose.position = config_.start + (config_.speed_mps * s) * forward +
                  sway * lateral;
  const double yaw = config_.heading_rad + config_.device_yaw_offset_rad +
                     yaw_jitter_at(t);
  pose.orientation = Quaternion::from_yaw(yaw);
  return pose;
}

MotionBound LinearWalk::motion_bound(sim::Time) const {
  const double sway_speed =
      kTwoPi * std::fabs(config_.sway_frequency_hz * config_.sway_amplitude_m);
  return {.v_max_mps = config_.speed_mps + sway_speed,
          .yaw_rate_max_rad_per_s = max_jitter_rate_,
          .until = MotionBound::kForever};
}

}  // namespace st::mobility
