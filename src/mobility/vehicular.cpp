#include "mobility/vehicular.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/angles.hpp"

namespace st::mobility {

VehicularRoute::VehicularRoute(const VehicularConfig& config)
    : config_(config) {
  if (config.route.size() < 2) {
    throw std::invalid_argument("VehicularRoute: need at least two waypoints");
  }
  if (!(config.speed_mps > 0.0)) {
    throw std::invalid_argument("VehicularRoute: speed must be positive");
  }
  double cumulative = 0.0;
  for (std::size_t i = 0; i + 1 < config.route.size(); ++i) {
    Segment s;
    s.from = config.route[i];
    s.to = config.route[i + 1];
    s.start_m = cumulative;
    s.length_m = distance(s.from, s.to);
    if (s.length_m <= 0.0) {
      continue;  // skip duplicate waypoints
    }
    const Vec3 dir = (s.to - s.from).normalized();
    s.heading_rad = dir.azimuth();
    cumulative += s.length_m;
    segments_.push_back(s);
  }
  if (segments_.empty()) {
    throw std::invalid_argument("VehicularRoute: route has zero length");
  }
  total_length_m_ = cumulative;
}

double VehicularRoute::travelled_m(sim::Time t) const noexcept {
  return std::clamp(config_.speed_mps * std::max(0.0, t.seconds()), 0.0,
                    total_length_m_);
}

const VehicularRoute::Segment& VehicularRoute::segment_at(
    double travelled) const noexcept {
  // Few segments; a linear scan is fine and keeps this trivially correct.
  for (const Segment& s : segments_) {
    if (travelled <= s.start_m + s.length_m) {
      return s;
    }
  }
  return segments_.back();
}

MotionBound VehicularRoute::motion_bound(sim::Time t) const {
  const double wobble_rate =
      kTwoPi * std::fabs(config_.yaw_wobble_hz * config_.yaw_wobble_rad);
  const double travelled = travelled_m(t);
  if (travelled == total_length_m_) {
    // Parked at the route's end: only the wobble still moves.
    return {.yaw_rate_max_rad_per_s = wobble_rate,
            .until = MotionBound::kForever};
  }
  // Exactly on a waypoint the heading jumps right after t, so there is no
  // certificate; otherwise the bound ends a microsecond short of the
  // segment end, which keeps it clear of the rounding in segment_at.
  const Segment& seg = segment_at(travelled);
  const double end_m = seg.start_m + seg.length_m;
  if (travelled == end_m) {
    return {.until = t};
  }
  const double end_s = end_m / config_.speed_mps - 1e-6;
  return {.v_max_mps = config_.speed_mps,
          .yaw_rate_max_rad_per_s = wobble_rate,
          .until = sim::Time::zero() + sim::Duration::seconds_of(end_s)};
}

Pose VehicularRoute::pose_at(sim::Time t) const {
  const double travelled = travelled_m(t);
  const Segment* seg = &segment_at(travelled);
  const double along = travelled - seg->start_m;
  const Vec3 dir = (seg->to - seg->from).normalized();

  Pose pose;
  pose.position = seg->from + along * dir;
  const double wobble =
      config_.yaw_wobble_rad *
      std::sin(kTwoPi * config_.yaw_wobble_hz * std::max(0.0, t.seconds()));
  pose.orientation = Quaternion::from_yaw(seg->heading_rad + wobble);
  return pose;
}

}  // namespace st::mobility
