// Spatially correlated log-normal shadowing.
//
// Shadowing must be correlated over distance, not i.i.d. per sample: the
// 3 dB-drop rule at the heart of both BeamSurfer and Silent Tracker reacts
// to sustained RSS changes, and i.i.d. shadow draws every measurement slot
// would make the protocols thrash on noise that no real channel produces.
//
// The field is realised as a sum of random Fourier features — a Gaussian
// random field S(p) = sigma * sqrt(2/K) * sum_i cos(k_i . p + phi_i) with
// wavevector magnitudes drawn so the autocorrelation decays on the scale
// of `decorrelation_distance_m` (Gudmundson-like). Unlike a Gauss–Markov
// walk, the field is a pure *function of position*: the metric layer and
// the protocols can query it in any order, at any time, without
// perturbing each other's realisation — a determinism requirement of the
// experiment harness.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "common/vec.hpp"

namespace st::phy {

struct ShadowingConfig {
  double sigma_db = 2.5;  ///< standard deviation (60 GHz LOS-ish)
  double decorrelation_distance_m = 10.0;
};

class ShadowingProcess {
 public:
  ShadowingProcess(const ShadowingConfig& config, std::uint64_t seed);

  /// Shadowing value [dB] at a position — deterministic in (seed,
  /// position), independent of query order.
  [[nodiscard]] double sample_db(Vec3 position) const noexcept;

  [[nodiscard]] double sigma_db() const noexcept { return config_.sigma_db; }

  /// Bound on the field's gradient magnitude [dB/m]:
  /// sigma * sqrt(2/K) * sum_i |k_i| over the drawn wavevectors.
  [[nodiscard]] double gradient_bound_db_per_m() const noexcept {
    return gradient_bound_db_per_m_;
  }

  /// Bound on |sample_db| [dB]: sigma * sqrt(2/K) * K, every cosine at 1.
  [[nodiscard]] double amplitude_bound_db() const noexcept {
    return config_.sigma_db *
           std::sqrt(2.0 * static_cast<double>(kComponents));
  }

 private:
  static constexpr std::size_t kComponents = 48;

  ShadowingConfig config_;
  // Wavevectors stored as structure-of-arrays so sample_db can stream
  // them through the vectorized cosine-field evaluator (phy/simd.hpp).
  std::array<double, kComponents> kx_{};
  std::array<double, kComponents> ky_{};
  std::array<double, kComponents> kz_{};
  std::array<double, kComponents> phases_{};
  double gradient_bound_db_per_m_ = 0.0;
};

}  // namespace st::phy
