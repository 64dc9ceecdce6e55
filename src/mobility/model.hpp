// Mobility model interface: a deterministic map from simulation time to
// device pose.
//
// Models are *functions of time*, not stepped integrators — any component
// (channel sampling, metric layer, protocol timers) can query the pose at
// any instant without ordering constraints, and a run replays identically
// regardless of who sampled when. Models that need randomness (gait
// jitter, waypoint draws) pre-draw it at construction from a seed.
#pragma once

#include <cstdint>
#include <limits>

#include "common/pose.hpp"
#include "sim/time.hpp"

namespace st::mobility {

/// A certificate on a model's motion over [from, until): the device
/// position moves no faster than `v_max_mps`, its orientation stays a pure
/// yaw, and that yaw turns no faster than `yaw_rate_max_rad_per_s`. The
/// position and the yaw are continuous on the interval. `until == from`
/// means no certificate. The link monitor turns these bounds into a bound
/// on how fast the serving SNR can move (RadioEnvironment::
/// certified_hold_until).
struct MotionBound {
  double v_max_mps = 0.0;
  double yaw_rate_max_rad_per_s = 0.0;
  sim::Time until;  ///< exclusive end of the certified interval

  /// The end of time, for bounds that never expire.
  static constexpr sim::Time kForever =
      sim::Time::from_ns(std::numeric_limits<std::int64_t>::max());
};

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Pose at absolute simulation time `t` (t >= 0; models clamp or
  /// extrapolate beyond their natural horizon, never throw).
  [[nodiscard]] virtual Pose pose_at(sim::Time t) const = 0;

  /// Certified motion bound from `t` on. The default is no certificate
  /// (`until == t`): trace playback keeps it.
  [[nodiscard]] virtual MotionBound motion_bound(sim::Time t) const {
    return {.until = t};
  }

 protected:
  MobilityModel() = default;
  MobilityModel(const MobilityModel&) = default;
  MobilityModel& operator=(const MobilityModel&) = default;
};

/// Fixed pose forever — base stations, and the anchor for rotation-only
/// scenarios.
class Stationary final : public MobilityModel {
 public:
  explicit Stationary(Pose pose) : pose_(pose) {}

  [[nodiscard]] Pose pose_at(sim::Time) const override { return pose_; }
  [[nodiscard]] MotionBound motion_bound(sim::Time) const override {
    return {.until = MotionBound::kForever};
  }

 private:
  Pose pose_;
};

}  // namespace st::mobility
