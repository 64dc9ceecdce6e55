// Composition of mobility models: take position from one model and stack
// an additional rotation on top of its orientation. Lets experiments
// combine, e.g., the vehicular route with a device that is also being
// turned in the cabin, or add scripted rotation to a walk.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "mobility/model.hpp"

namespace st::mobility {

class RotatedModel final : public MobilityModel {
 public:
  /// `base` provides position and base orientation; `extra_yaw_rate` spins
  /// the device on top of it.
  RotatedModel(std::shared_ptr<const MobilityModel> base,
               double extra_yaw_rate_rad_per_s)
      : base_(std::move(base)), rate_(extra_yaw_rate_rad_per_s) {
    if (base_ == nullptr) {
      throw std::invalid_argument("RotatedModel: base must not be null");
    }
  }

  [[nodiscard]] Pose pose_at(sim::Time t) const override {
    Pose pose = base_->pose_at(t);
    const double extra = rate_ * std::max(0.0, t.seconds());
    pose.orientation = Quaternion::from_yaw(extra) * pose.orientation;
    return pose;
  }

  [[nodiscard]] MotionBound motion_bound(sim::Time t) const override {
    MotionBound bound = base_->motion_bound(t);
    if (bound.until > t) {
      bound.yaw_rate_max_rad_per_s += std::abs(rate_);
    }
    return bound;
  }

 private:
  std::shared_ptr<const MobilityModel> base_;
  double rate_;
};

}  // namespace st::mobility
