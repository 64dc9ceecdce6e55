#include "phy/beam_pattern.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/angles.hpp"
#include "common/units.hpp"
#include "phy/simd.hpp"

namespace st::phy {

namespace {

/// Element envelope used by the ULA pattern: cos^2 falloff towards the
/// array plane with a −30 dB backplane floor. Real phased-array modules
/// (including the NI front ends in the paper's testbed) radiate into a
/// half space; without this envelope a bare ULA array factor would have a
/// perfect mirror backlobe and beam search tests would see ghost beams.
double element_gain_linear(double offset_rad) noexcept {
  constexpr double kBackFloor = 1e-3;  // −30 dB
  const double c = std::cos(offset_rad);
  if (c <= 0.0) {
    return kBackFloor;
  }
  return std::max(c * c, kBackFloor);
}

/// Broadside array-factor power gain of an N-element lambda/2 ULA at a
/// given azimuth offset, normalised so that boresight = N (linear).
double ula_af_gain_linear(unsigned n, double offset_rad) noexcept {
  const double psi = kPi * std::sin(offset_rad);
  const double denom = std::sin(0.5 * psi);
  const double dn = static_cast<double>(n);
  if (std::fabs(denom) < 1e-12) {
    return dn;  // boresight (and grating condition, absent at lambda/2)
  }
  const double num = std::sin(0.5 * dn * psi);
  const double af = num / denom;
  return af * af / dn;
}

/// Numerical half-power beamwidth for a symmetric pattern given a gain
/// functor (linear) with its peak at offset zero. A coarse scan brackets
/// the first crossing below half power, then bisection refines it. The
/// bracket contains exactly one crossing for every pattern family here:
/// sidelobes sit far below −3 dB, so the gain stays under half power once
/// the main lobe has crossed it.
template <typename GainFn>
double numeric_hpbw(GainFn&& gain, double peak_linear) {
  const double half = 0.5 * peak_linear;
  constexpr double kCoarseStep = kPi / 1024.0;
  double lo = 0.0;
  double hi = -1.0;
  for (double theta = kCoarseStep; theta <= kPi; theta += kCoarseStep) {
    if (gain(theta) < half) {
      hi = theta;
      break;
    }
    lo = theta;
  }
  if (hi < 0.0) {
    return kTwoPi;  // never drops below half power within the half circle
  }
  for (int i = 0; i < 48; ++i) {
    const double mid = 0.5 * (lo + hi);
    (gain(mid) < half ? hi : lo) = mid;
  }
  return 2.0 * hi;
}

}  // namespace

double BeamPattern::gain_linear(double offset_rad) const noexcept {
  return from_db(gain_dbi(offset_rad));
}

double BeamPattern::max_db_slope_per_rad() const noexcept {
  return std::numeric_limits<double>::infinity();
}

void BeamPattern::gain_linear_batch(const double* offsets, double* out,
                                    std::size_t n) const noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = gain_linear(offsets[i]);
  }
}

void OmniPattern::gain_linear_batch(const double* /*offsets*/, double* out,
                                    std::size_t n) const noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = 1.0;
  }
}

double OmniPattern::hpbw_rad() const noexcept { return kTwoPi; }

GaussianPattern::GaussianPattern(double hpbw_rad, double sidelobe_floor_db)
    : hpbw_(hpbw_rad) {
  if (!(hpbw_rad > 0.0) || hpbw_rad > kTwoPi) {
    throw std::invalid_argument("GaussianPattern: hpbw must be in (0, 2*pi]");
  }
  if (sidelobe_floor_db >= 0.0) {
    throw std::invalid_argument(
        "GaussianPattern: sidelobe floor must be below the peak");
  }
  sigma_ = hpbw_rad / (2.0 * std::sqrt(2.0 * std::log(2.0)));
  const double rel_floor = from_db(sidelobe_floor_db);

  // The lobe meets the floor at theta^2 = 2 sigma^2 ln(1/rel_floor). Past
  // that cut, widened by a relative 1e-6, exp(-theta^2 / 2 sigma^2) is
  // below rel_floor * exp(-1e-6 * ln(1/rel_floor)): a relative gap of at
  // least ~2.3e-10 even for a -0.001 dB floor (ln(1/rel_floor) = 2.3e-4),
  // and larger for every deeper floor. The rounding of theta^2, of the
  // quotient, of exp (< 1 ulp), of the product with the peak and of
  // floor_linear_ itself adds up to a few 1e-16 relative, so the computed
  // lobe is below the computed floor and std::max would return the floor:
  // gain_linear may return it without calling exp. The same holds for the
  // unscaled lobe against rel_floor, so the integral below skips exp there
  // too (about 86% of its samples for a 20 degree beam). A floor too deep to
  // meet within the half circle (or an underflowed rel_floor, whose cut
  // is +inf) simply never takes the shortcut; nor does a floor within
  // ~4e-6 dB of the peak, where the gap would shrink towards the rounding.
  const double log_inv_floor = -std::log(rel_floor);
  floor_theta2_ = log_inv_floor >= 1e-6
                      ? 2.0 * sigma_ * sigma_ * log_inv_floor * (1.0 + 1e-6)
                      : std::numeric_limits<double>::infinity();

  // Normalise so mean gain over azimuth is 1 (0 dBi): the beam
  // concentrates, not creates, energy. Simpson integration of the shape
  // max(exp(-theta^2/2sigma^2), rel_floor) over (-pi, pi].
  constexpr int kSamples = 4096;
  const double h = kTwoPi / kSamples;
  double integral = 0.0;
  for (int i = 0; i <= kSamples; ++i) {
    const double theta = -kPi + static_cast<double>(i) * h;
    const double shape =
        theta * theta > floor_theta2_
            ? rel_floor
            : std::max(std::exp(-theta * theta / (2.0 * sigma_ * sigma_)),
                       rel_floor);
    const double w = (i == 0 || i == kSamples) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
    integral += w * shape;
  }
  integral *= h / 3.0;

  peak_linear_ = kTwoPi / integral;
  floor_linear_ = rel_floor * peak_linear_;
  max_db_slope_ = (10.0 / std::log(10.0)) *
                  std::sqrt(2.0 * std::log(1.0 / rel_floor)) / sigma_;
}

double GaussianPattern::gain_dbi(double offset_rad) const noexcept {
  return to_db(gain_linear(offset_rad));
}

double GaussianPattern::gain_linear(double offset_rad) const noexcept {
  const double theta = wrap_pi(offset_rad);
  if (theta * theta > floor_theta2_) {
    return floor_linear_;  // provably max(lobe, floor) == floor; see ctor
  }
  const double lobe =
      peak_linear_ * std::exp(-theta * theta / (2.0 * sigma_ * sigma_));
  return std::max(lobe, floor_linear_);
}

void GaussianPattern::gain_linear_batch(const double* offsets, double* out,
                                        std::size_t n) const noexcept {
  simd::gaussian_gain_batch(offsets, out, n, peak_linear_, sigma_,
                            floor_linear_);
}

double GaussianPattern::peak_gain_dbi() const noexcept {
  return to_db(peak_linear_);
}

UlaPattern::UlaPattern(unsigned elements) : n_(elements) {
  if (elements == 0) {
    throw std::invalid_argument("UlaPattern: need at least one element");
  }
  const double peak =
      static_cast<double>(n_) * element_gain_linear(0.0);
  hpbw_ = numeric_hpbw(
      [this](double theta) {
        return ula_af_gain_linear(n_, theta) * element_gain_linear(theta);
      },
      peak);
}

double UlaPattern::gain_dbi(double offset_rad) const noexcept {
  return to_db(gain_linear(offset_rad));
}

double UlaPattern::gain_linear(double offset_rad) const noexcept {
  const double theta = wrap_pi(offset_rad);
  const double g = ula_af_gain_linear(n_, theta) * element_gain_linear(theta);
  return std::max(g, 1e-6);
}

double UlaPattern::peak_gain_dbi() const noexcept {
  return to_db(static_cast<double>(n_) * element_gain_linear(0.0));
}

unsigned ula_elements_for_hpbw(double hpbw_rad) {
  if (!(hpbw_rad > 0.0)) {
    throw std::invalid_argument("ula_elements_for_hpbw: hpbw must be positive");
  }
  // HPBW is strictly decreasing in the element count, so the smallest
  // qualifying array is found by bisection — ~10 pattern constructions
  // instead of up to 512.
  constexpr unsigned kMaxElements = 512;
  if (UlaPattern(1).hpbw_rad() <= hpbw_rad) {
    return 1;
  }
  if (UlaPattern(kMaxElements).hpbw_rad() > hpbw_rad) {
    return kMaxElements;
  }
  unsigned too_wide = 1;           // hpbw > requested
  unsigned narrow = kMaxElements;  // hpbw <= requested
  while (narrow - too_wide > 1) {
    const unsigned mid = too_wide + (narrow - too_wide) / 2;
    if (UlaPattern(mid).hpbw_rad() <= hpbw_rad) {
      narrow = mid;
    } else {
      too_wide = mid;
    }
  }
  return narrow;
}

}  // namespace st::phy
