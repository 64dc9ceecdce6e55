#include "common/angles.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace st {
namespace {

TEST(Angles, DegRadRoundTrip) {
  EXPECT_DOUBLE_EQ(deg_to_rad(180.0), kPi);
  EXPECT_DOUBLE_EQ(rad_to_deg(kPi), 180.0);
  EXPECT_NEAR(rad_to_deg(deg_to_rad(123.456)), 123.456, 1e-12);
}

TEST(Angles, WrapPiIdentityInsideRange) {
  EXPECT_DOUBLE_EQ(wrap_pi(0.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_pi(1.0), 1.0);
  EXPECT_DOUBLE_EQ(wrap_pi(-1.0), -1.0);
}

TEST(Angles, WrapPiMapsBoundaryToPositivePi) {
  EXPECT_DOUBLE_EQ(wrap_pi(kPi), kPi);
  EXPECT_DOUBLE_EQ(wrap_pi(-kPi), kPi);
  EXPECT_DOUBLE_EQ(wrap_pi(3.0 * kPi), kPi);
}

TEST(Angles, WrapPiLargeMagnitudes) {
  EXPECT_NEAR(wrap_pi(100.0 * kTwoPi + 0.25), 0.25, 1e-9);
  EXPECT_NEAR(wrap_pi(-100.0 * kTwoPi - 0.25), -0.25, 1e-9);
}

TEST(Angles, AngularDistanceSymmetric) {
  EXPECT_DOUBLE_EQ(angular_distance(0.3, 1.1), angular_distance(1.1, 0.3));
  EXPECT_NEAR(angular_distance(0.3, 1.1), 0.8, 1e-12);
}

TEST(Angles, AngularDistanceAcrossSeam) {
  // 170 deg and -170 deg are 20 deg apart, not 340.
  EXPECT_NEAR(angular_distance(deg_to_rad(170.0), deg_to_rad(-170.0)),
              deg_to_rad(20.0), 1e-12);
}

TEST(Angles, AngularDistanceMaxIsPi) {
  EXPECT_NEAR(angular_distance(0.0, kPi), kPi, 1e-12);
}

TEST(Angles, AngularDifferenceSigned) {
  EXPECT_NEAR(angular_difference(0.0, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(angular_difference(0.5, 0.0), -0.5, 1e-12);
  // Shortest path across the seam is positive (+20 deg).
  EXPECT_NEAR(angular_difference(deg_to_rad(170.0), deg_to_rad(-170.0)),
              deg_to_rad(20.0), 1e-12);
}

TEST(Angles, AngularLerpEndpoints) {
  EXPECT_NEAR(angular_lerp(0.2, 1.4, 0.0), 0.2, 1e-12);
  EXPECT_NEAR(angular_lerp(0.2, 1.4, 1.0), 1.4, 1e-12);
}

TEST(Angles, AngularLerpTakesShortArc) {
  const double a = deg_to_rad(170.0);
  const double b = deg_to_rad(-170.0);
  const double mid = angular_lerp(a, b, 0.5);
  EXPECT_NEAR(angular_distance(mid, deg_to_rad(180.0)), 0.0, 1e-9);
}

/// The formula wrap_pi had before its fast paths, spelled out: remainder
/// against 2*pi, then -pi mapped to +pi.
double wrap_pi_by_remainder(double rad) {
  double w = std::remainder(rad, kTwoPi);
  if (w <= -kPi) {
    w += kTwoPi;
  }
  return w;
}

/// Same bits, so signed zeros count (NaNs are matched as NaNs below).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Angles, WrapPiMatchesRemainderBitForBit) {
  std::vector<double> inputs;
  Rng rng(20211);
  for (int i = 0; i < 1'000'000; ++i) {
    inputs.push_back(rng.uniform(-4.0 * kPi, 4.0 * kPi));
  }
  // Both sides of every branch boundary, a few ulps deep.
  for (const double edge : {kPi, -kPi, kTwoPi, -kTwoPi}) {
    double up = edge;
    double down = edge;
    inputs.push_back(edge);
    for (int i = 0; i < 8; ++i) {
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      down = std::nextafter(down, -std::numeric_limits<double>::infinity());
      inputs.push_back(up);
      inputs.push_back(down);
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const double special :
       {0.0, -0.0, tiny, -tiny, std::numeric_limits<double>::min() / 2.0, inf,
        -inf, std::numeric_limits<double>::quiet_NaN(), 1e300, -1e300}) {
    inputs.push_back(special);
  }
  for (const double x : inputs) {
    const double want = wrap_pi_by_remainder(x);
    const double got = wrap_pi(x);
    ASSERT_TRUE(same_bits(got, want) || (std::isnan(got) && std::isnan(want)))
        << "x = " << x << ": got " << got << ", want " << want;
  }
}

/// Property sweep: wrap_pi output is always in (-pi, pi] and preserves the
/// angle modulo 2*pi.
class WrapPiProperty : public ::testing::TestWithParam<double> {};

TEST_P(WrapPiProperty, RangeAndEquivalence) {
  const double theta = GetParam();
  const double w = wrap_pi(theta);
  EXPECT_GT(w, -kPi);
  EXPECT_LE(w, kPi);
  EXPECT_NEAR(std::remainder(theta - w, kTwoPi), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WrapPiProperty,
                         ::testing::Values(-17.3, -6.4, -kPi, -0.5, 0.0, 0.5,
                                           kPi, 4.0, 9.42, 123.456, -987.65,
                                           1e6, -1e6));

}  // namespace
}  // namespace st
