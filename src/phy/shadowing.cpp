#include "phy/shadowing.hpp"

#include <cmath>
#include <stdexcept>

#include "common/angles.hpp"
#include "common/rng.hpp"
#include "phy/simd.hpp"

namespace st::phy {

ShadowingProcess::ShadowingProcess(const ShadowingConfig& config,
                                   std::uint64_t seed)
    : config_(config) {
  if (config.sigma_db < 0.0) {
    throw std::invalid_argument("ShadowingProcess: sigma must be >= 0");
  }
  if (!(config.decorrelation_distance_m > 0.0)) {
    throw std::invalid_argument(
        "ShadowingProcess: decorrelation distance must be positive");
  }
  Rng rng(seed);
  for (std::size_t i = 0; i < kComponents; ++i) {
    // Rayleigh-distributed wavenumber (i.e. a Gaussian spectral density)
    // whose scale puts the field's correlation length at ~d_corr, with a
    // random planar direction per component.
    const double k_scale = 1.0 / config.decorrelation_distance_m;
    const double magnitude =
        k_scale * std::sqrt(-2.0 * std::log(std::max(1e-12, rng.uniform())));
    const double direction = rng.uniform(-kPi, kPi);
    const Vec3 k = magnitude * Vec3{std::cos(direction),
                                    std::sin(direction), 0.0};
    kx_[i] = k.x;
    ky_[i] = k.y;
    kz_[i] = k.z;
    phases_[i] = rng.uniform(0.0, kTwoPi);
    gradient_bound_db_per_m_ += magnitude;
  }
  gradient_bound_db_per_m_ *=
      config.sigma_db * std::sqrt(2.0 / static_cast<double>(kComponents));
}

double ShadowingProcess::sample_db(Vec3 position) const noexcept {
  if (config_.sigma_db == 0.0) {
    return 0.0;
  }
  const double sum =
      simd::cosine_field_sum(kx_.data(), ky_.data(), kz_.data(),
                             phases_.data(), kComponents, position.x,
                             position.y, position.z);
  return config_.sigma_db *
         std::sqrt(2.0 / static_cast<double>(kComponents)) * sum;
}

}  // namespace st::phy
