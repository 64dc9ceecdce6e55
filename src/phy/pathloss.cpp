#include "phy/pathloss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/angles.hpp"
#include "common/units.hpp"

namespace st::phy {

double free_space_loss_db(double distance_m, double carrier_hz) noexcept {
  const double d = std::max(distance_m, 1.0);
  return 20.0 * std::log10(4.0 * kPi * d * carrier_hz / kSpeedOfLight);
}

PathLoss::PathLoss(const PathLossConfig& config)
    : config_(config), fspl_1m_db_(free_space_loss_db(1.0, config.carrier_hz)) {
  if (!(config.carrier_hz > 0.0)) {
    throw std::invalid_argument("PathLoss: carrier must be positive");
  }
  if (config.oxygen_db_per_m < 0.0) {
    throw std::invalid_argument("PathLoss: oxygen absorption must be >= 0");
  }
}

double PathLoss::loss_db(double distance_m) const noexcept {
  const double d = std::max(distance_m, 1.0);
  const double fc_ghz = config_.carrier_hz * 1e-9;
  double loss = 0.0;
  switch (config_.model) {
    case PathLossModel::kFreeSpace:
      loss = fspl_1m_db_ + 20.0 * std::log10(d);
      break;
    case PathLossModel::kUmiStreetCanyonLos:
      // TR 38.901 UMi-LOS PL1 (valid below the breakpoint distance, which
      // at 60 GHz and lamppost heights exceeds our cell sizes).
      loss = 32.4 + 21.0 * std::log10(d) + 20.0 * std::log10(fc_ghz);
      break;
    case PathLossModel::kUmiStreetCanyonNlos:
      // TR 38.901 UMi-NLOS, lower-bounded by the LOS loss as in the spec.
      loss = std::max(
          22.4 + 35.3 * std::log10(d) + 21.3 * std::log10(fc_ghz),
          32.4 + 21.0 * std::log10(d) + 20.0 * std::log10(fc_ghz));
      break;
  }
  return loss + config_.oxygen_db_per_m * d;
}

double PathLoss::max_slope_db_per_m(double d_min_m) const noexcept {
  double per_decade = 20.0;  // free space
  if (config_.model == PathLossModel::kUmiStreetCanyonLos) {
    per_decade = 21.0;
  } else if (config_.model == PathLossModel::kUmiStreetCanyonNlos) {
    per_decade = 35.3;  // the steeper of the two terms under the max
  }
  return per_decade / (std::log(10.0) * std::max(d_min_m, 1.0)) +
         config_.oxygen_db_per_m;
}

}  // namespace st::phy
