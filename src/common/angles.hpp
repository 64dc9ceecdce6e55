// Angle arithmetic helpers. All protocol and PHY code works in radians;
// degrees appear only at API edges (configuration, reporting) because the
// paper specifies beamwidths (20°, 60°) and rotation rate (120 °/s) in
// degrees.
#pragma once

#include <numbers>

namespace st {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

[[nodiscard]] constexpr double deg_to_rad(double deg) noexcept {
  return deg * kPi / 180.0;
}

[[nodiscard]] constexpr double rad_to_deg(double rad) noexcept {
  return rad * 180.0 / kPi;
}

/// Wrap an angle to (-pi, pi].
[[nodiscard]] double wrap_pi(double rad) noexcept;

/// Smallest absolute angular distance between two angles, in [0, pi].
[[nodiscard]] double angular_distance(double a_rad, double b_rad) noexcept;

/// Signed shortest rotation taking `from` to `to`, in (-pi, pi].
[[nodiscard]] double angular_difference(double from_rad, double to_rad) noexcept;

/// Linear interpolation along the shortest arc from `a` to `b`.
/// `t` in [0,1]; result is wrapped to (-pi, pi].
[[nodiscard]] double angular_lerp(double a_rad, double b_rad, double t) noexcept;

}  // namespace st
