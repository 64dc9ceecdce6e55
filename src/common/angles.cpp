#include "common/angles.hpp"

#include <cmath>

namespace st {

double wrap_pi(double rad) noexcept {
  // Exact fast paths for std::remainder(rad, kTwoPi), bit for bit (the
  // beam-gain hot path wraps offsets that almost always lie within one
  // turn). remainder subtracts n * kTwoPi with n = rad / kTwoPi rounded to
  // nearest, ties to even:
  //  * |rad| <= pi: |rad / kTwoPi| <= 1/2 (kTwoPi is exactly 2 * kPi), so
  //    n = 0 — the half-way case rounds to the even 0 — and the result is
  //    rad itself, signed zeros included.
  //  * pi < |rad| < 2*pi: n = +-1, and rad -+ kTwoPi is exact by
  //    Sterbenz's lemma (kTwoPi / 2 <= |rad| <= 2 * kTwoPi).
  // Everything else — |rad| >= 2*pi, infinities, NaN — takes remainder.
  const double mag = std::fabs(rad);
  double w = rad;
  if (mag > kPi && mag < kTwoPi) {
    w = rad > 0.0 ? rad - kTwoPi : rad + kTwoPi;
  } else if (!(mag <= kPi)) {
    w = std::remainder(rad, kTwoPi);
  }
  // Each branch returns values in [-pi, pi]; map -pi to +pi so the
  // result lies in (-pi, pi] and wrap_pi(pi) == pi.
  if (w <= -kPi) {
    w += kTwoPi;
  }
  return w;
}

double angular_distance(double a_rad, double b_rad) noexcept {
  return std::fabs(wrap_pi(a_rad - b_rad));
}

double angular_difference(double from_rad, double to_rad) noexcept {
  return wrap_pi(to_rad - from_rad);
}

double angular_lerp(double a_rad, double b_rad, double t) noexcept {
  return wrap_pi(a_rad + t * angular_difference(a_rad, b_rad));
}

}  // namespace st
