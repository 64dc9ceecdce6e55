// Antenna beam patterns: power gain versus angular offset from boresight.
//
// Two families are provided:
//
//  * UlaPattern — the physical pattern of an N-element half-wavelength
//    uniform linear array with conjugate (MRT) beamforming weights: a
//    sinc-like main lobe with real sidelobes. This is what the NI phased
//    array front ends in the paper's testbed approximate.
//  * GaussianPattern — the analytical "Gaussian main lobe + sidelobe
//    floor" model standard in mm-wave system analysis, parameterised
//    directly by half-power beamwidth, so a "20° codebook" in the paper
//    maps to exactly 20°.
//
// Both are normalised so that the gain integrated over azimuth equals the
// omni gain (energy conservation): narrowing a beam raises its peak gain,
// which is precisely the trade-off that makes directional search win at
// cell edge (Fig. 2a) while costing sweep time.
//
// Patterns are azimuth-only. The deployments reproduced here are planar
// (base stations and a handheld/vehicle-mounted mobile at similar heights,
// 10 m range) and the rotation scenario is yaw; elevation never departs
// far from broadside. A fixed elevation envelope can be applied by the
// channel for off-plane geometry.
#pragma once

#include <cstddef>
#include <memory>

namespace st::phy {

class BeamPattern {
 public:
  virtual ~BeamPattern() = default;

  /// Power gain [dBi] at an angular offset [rad] from boresight.
  /// Offset is wrapped internally; any real value is accepted.
  [[nodiscard]] virtual double gain_dbi(double offset_rad) const noexcept = 0;

  /// Power gain as a linear ratio at an angular offset [rad] from
  /// boresight. Equivalent to from_db(gain_dbi(offset)) up to rounding,
  /// but skips the dB round trip — the sweep kernels call this once per
  /// (path, candidate beam) in their inner loop.
  [[nodiscard]] virtual double gain_linear(double offset_rad) const noexcept;

  /// Linear gains for `n` angular offsets at once — the sweep kernels'
  /// batch accessor, letting a pattern amortise its transcendental work
  /// across a whole codebook (see Codebook::gains_linear). In-place
  /// operation (`out == offsets`) is supported. The default simply loops
  /// gain_linear; GaussianPattern dispatches to the vectorized evaluator
  /// when the ST_SIMD fast path is compiled in and supported.
  virtual void gain_linear_batch(const double* offsets, double* out,
                                 std::size_t n) const noexcept;

  /// Half-power (−3 dB) beamwidth [rad]. Omni patterns report 2*pi.
  [[nodiscard]] virtual double hpbw_rad() const noexcept = 0;

  /// Peak (boresight) gain [dBi].
  [[nodiscard]] virtual double peak_gain_dbi() const noexcept = 0;

  /// Bound on |d gain_dbi / d offset| [dB/rad] over every offset: the
  /// gain-vs-angle slope the link monitor's hold certificate rests on.
  /// The default is +infinity (no bound): a ULA's nulls fall to the
  /// 1e-6 clamp with unbounded dB slopes beside them.
  [[nodiscard]] virtual double max_db_slope_per_rad() const noexcept;

 protected:
  BeamPattern() = default;
  BeamPattern(const BeamPattern&) = default;
  BeamPattern& operator=(const BeamPattern&) = default;
};

/// Isotropic-in-azimuth pattern (0 dBi): the paper's "omnidirectional /
/// single antenna at the mobile" baseline.
class OmniPattern final : public BeamPattern {
 public:
  [[nodiscard]] double gain_dbi(double) const noexcept override { return 0.0; }
  [[nodiscard]] double gain_linear(double) const noexcept override {
    return 1.0;
  }
  void gain_linear_batch(const double* offsets, double* out,
                         std::size_t n) const noexcept override;
  [[nodiscard]] double hpbw_rad() const noexcept override;
  [[nodiscard]] double peak_gain_dbi() const noexcept override { return 0.0; }
  [[nodiscard]] double max_db_slope_per_rad() const noexcept override {
    return 0.0;
  }
};

/// Gaussian main lobe of given half-power beamwidth over a constant
/// sidelobe floor; peak gain set by energy conservation over azimuth.
class GaussianPattern final : public BeamPattern {
 public:
  /// `hpbw_rad` in (0, 2*pi); `sidelobe_floor_db` is the floor relative to
  /// the peak (e.g. −20 dB, typical of small commercial arrays).
  explicit GaussianPattern(double hpbw_rad, double sidelobe_floor_db = -20.0);

  [[nodiscard]] double gain_dbi(double offset_rad) const noexcept override;
  [[nodiscard]] double gain_linear(double offset_rad) const noexcept override;
  void gain_linear_batch(const double* offsets, double* out,
                         std::size_t n) const noexcept override;
  [[nodiscard]] double hpbw_rad() const noexcept override { return hpbw_; }
  [[nodiscard]] double peak_gain_dbi() const noexcept override;
  /// The lobe's dB slope (10/ln10)*theta/sigma^2 is steepest where it
  /// meets the floor, at theta = sigma*sqrt(2*ln(1/floor_rel)):
  /// (10/ln10) * sqrt(2*ln(1/floor_rel)) / sigma. Flat below the floor.
  [[nodiscard]] double max_db_slope_per_rad() const noexcept override {
    return max_db_slope_;
  }

 private:
  double hpbw_;
  double sigma_;           // Gaussian std-dev in radians
  double peak_linear_;     // boresight linear gain
  double floor_linear_;    // sidelobe floor linear gain (absolute, not
                           // relative) after normalisation
  double max_db_slope_;    // see max_db_slope_per_rad()
  double floor_theta2_;    // theta^2 beyond which the gain is the floor
};

/// Physical pattern of an N-element half-wavelength ULA steered to
/// broadside with uniform (conjugate) weights.
class UlaPattern final : public BeamPattern {
 public:
  /// `elements` >= 1; element spacing fixed at lambda/2.
  explicit UlaPattern(unsigned elements);

  [[nodiscard]] double gain_dbi(double offset_rad) const noexcept override;
  [[nodiscard]] double gain_linear(double offset_rad) const noexcept override;
  [[nodiscard]] double hpbw_rad() const noexcept override { return hpbw_; }
  [[nodiscard]] double peak_gain_dbi() const noexcept override;
  [[nodiscard]] unsigned elements() const noexcept { return n_; }

 private:
  unsigned n_;
  double hpbw_;  // computed numerically at construction
};

/// Smallest half-wavelength ULA whose half-power beamwidth does not exceed
/// `hpbw_rad` (used to map the paper's "20° codebook" onto hardware-like
/// arrays). Returns at least 1.
[[nodiscard]] unsigned ula_elements_for_hpbw(double hpbw_rad);

}  // namespace st::phy
