// Device rotation model — the paper's second scenario: a stationary user
// rotating the device at ω = 120 °/s. Supports continuous spin and
// back-and-forth sweeps over a bounded arc (how a person actually turns a
// phone); either way the AoA in the device frame changes at ±ω, the
// fastest angular dynamics in the paper's evaluation.
#pragma once

#include "mobility/model.hpp"

namespace st::mobility {

struct RotationConfig {
  Vec3 position{0.0, 0.0, 0.0};
  double initial_yaw_rad = 0.0;
  double rate_rad_per_s;  ///< paper: 120 °/s -> deg_to_rad(120)
  /// Half-width of the sweep arc; rotation reverses at the limits.
  /// Non-finite or <= 0 disables sweeping (continuous spin).
  double sweep_half_width_rad = 0.0;
};

class DeviceRotation final : public MobilityModel {
 public:
  explicit DeviceRotation(const RotationConfig& config);

  [[nodiscard]] Pose pose_at(sim::Time t) const override;
  /// Standing still; the yaw turns at |rate| (the sweep's triangle wave
  /// never turns faster).
  [[nodiscard]] MotionBound motion_bound(sim::Time t) const override;

  /// Device yaw at time `t` (exposed for tests).
  [[nodiscard]] double yaw_at(sim::Time t) const noexcept;

 private:
  RotationConfig config_;
};

}  // namespace st::mobility
