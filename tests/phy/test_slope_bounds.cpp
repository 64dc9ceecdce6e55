// Slope bounds behind the link monitor's hold certificate: each bound is
// at least the steepest slope found numerically, and not far above it.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/angles.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "phy/beam_pattern.hpp"
#include "phy/pathloss.hpp"
#include "phy/shadowing.hpp"

namespace st::phy {
namespace {

PathLoss path_loss(PathLossModel model) {
  PathLossConfig config;
  config.model = model;
  config.carrier_hz = kDefaultCarrierHz;
  config.oxygen_db_per_m = 0.015;
  return PathLoss(config);
}

TEST(SlopeBounds, PathLossSlopeBoundsEveryModel) {
  // Free space, UMi LOS, UMi NLOS.
  for (int m = 0; m < 3; ++m) {
    const PathLoss pl = path_loss(static_cast<PathLossModel>(m));
    constexpr double kStep = 1e-3;
    for (double d_min = 0.5; d_min < 200.0; d_min *= 1.3) {
      const double bound = pl.max_slope_db_per_m(d_min);
      for (double d = d_min; d < 4.0 * d_min; d += d_min / 16.0) {
        const double slope =
            std::fabs(pl.loss_db(d + kStep) - pl.loss_db(d)) / kStep;
        EXPECT_LE(slope, bound + 1e-6) << d;
      }
    }
  }
  // Free space at 10 m: 20 dB/decade is 0.869 dB/m, plus the oxygen.
  const PathLoss fs = path_loss(PathLossModel::kFreeSpace);
  const double per_m_at_10m = 20.0 / (10.0 * std::log(10.0));
  EXPECT_NEAR(fs.max_slope_db_per_m(10.0), per_m_at_10m + 0.015, 1e-12);
  // Below the 1 m floor the slope is that of 1 m.
  EXPECT_DOUBLE_EQ(fs.max_slope_db_per_m(0.2), fs.max_slope_db_per_m(1.0));
}

TEST(SlopeBounds, ShadowingGradientBound) {
  const ShadowingProcess field(ShadowingConfig{}, 8);
  const double bound = field.gradient_bound_db_per_m();
  EXPECT_GT(bound, 0.0);
  Rng rng(3);
  constexpr double kStep = 1e-4;
  double steepest = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const Vec3 p{rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0), 0.0};
    const double heading = rng.uniform(-kPi, kPi);
    const Vec3 q = p + kStep * Vec3{std::cos(heading), std::sin(heading), 0.0};
    const double rise = field.sample_db(q) - field.sample_db(p);
    steepest = std::max(steepest, std::fabs(rise) / kStep);
  }
  EXPECT_LE(steepest, bound);
  const ShadowingProcess flat({.sigma_db = 0.0}, 8);
  EXPECT_EQ(flat.gradient_bound_db_per_m(), 0.0);
}

TEST(SlopeBounds, GaussianSlopeIsTheSteepestLobeSlope) {
  for (const double hpbw_deg : {10.0, 20.0, 60.0, 120.0}) {
    const GaussianPattern g(deg_to_rad(hpbw_deg));
    const double bound = g.max_db_slope_per_rad();
    constexpr double kStep = 1e-5;
    double steepest = 0.0;
    for (double theta = -kPi; theta < kPi; theta += 1e-3) {
      const double rise = g.gain_dbi(theta + kStep) - g.gain_dbi(theta);
      steepest = std::max(steepest, std::fabs(rise) / kStep);
    }
    EXPECT_LE(steepest, bound * (1.0 + 1e-6)) << hpbw_deg;
    EXPECT_GE(steepest, 0.98 * bound) << hpbw_deg;  // tight, not vacuous
  }
}

TEST(SlopeBounds, OmniIsFlatAndUlaIsUnbounded) {
  EXPECT_EQ(OmniPattern().max_db_slope_per_rad(), 0.0);
  EXPECT_EQ(UlaPattern(8).max_db_slope_per_rad(),
            std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace st::phy
