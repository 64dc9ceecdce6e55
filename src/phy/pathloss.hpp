// Large-scale path loss at 60 GHz.
//
// Models provided:
//  * free space (Friis) — the baseline for the short LOS links of the
//    paper's testbed (mobile 10 m from the base station);
//  * 3GPP TR 38.901 UMi street-canyon LOS and NLOS — used for the
//    vehicular scenario's longer links;
// plus the 60 GHz oxygen-absorption excess (~15 dB/km, the reason mm-wave
// cells are small in the first place) applied on top of any model.
#pragma once

namespace st::phy {

enum class PathLossModel {
  kFreeSpace,
  kUmiStreetCanyonLos,
  kUmiStreetCanyonNlos,
};

struct PathLossConfig {
  PathLossModel model = PathLossModel::kFreeSpace;
  double carrier_hz;
  /// Sea-level 60 GHz oxygen absorption [dB/m]. 0.0 disables.
  double oxygen_db_per_m = 0.015;
};

class PathLoss {
 public:
  explicit PathLoss(const PathLossConfig& config);

  /// Total path loss [dB] (positive) over a 3-D distance [m]. Distances
  /// below 1 m clamp to 1 m (model validity floor).
  [[nodiscard]] double loss_db(double distance_m) const noexcept;

  /// Bound on |d loss_db / d distance| [dB/m] over distances >= `d_min_m`:
  /// the model's log-distance slope (20, 21 or 35.3 dB/decade) at the
  /// nearer of `d_min_m` and the 1 m floor, plus the oxygen term.
  [[nodiscard]] double max_slope_db_per_m(double d_min_m) const noexcept;

  [[nodiscard]] PathLossModel model() const noexcept { return config_.model; }

 private:
  PathLossConfig config_;
  double fspl_1m_db_;  // Friis loss at 1 m for the configured carrier
};

/// Friis free-space path loss [dB] at distance [m] and carrier [Hz].
[[nodiscard]] double free_space_loss_db(double distance_m,
                                        double carrier_hz) noexcept;

}  // namespace st::phy
