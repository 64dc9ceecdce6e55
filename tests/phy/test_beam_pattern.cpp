#include "phy/beam_pattern.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/angles.hpp"
#include "common/units.hpp"

namespace st::phy {
namespace {

TEST(OmniPattern, ZeroGainEverywhere) {
  OmniPattern omni;
  for (double theta = -kPi; theta <= kPi; theta += 0.1) {
    EXPECT_DOUBLE_EQ(omni.gain_dbi(theta), 0.0);
  }
  EXPECT_DOUBLE_EQ(omni.peak_gain_dbi(), 0.0);
  EXPECT_DOUBLE_EQ(omni.hpbw_rad(), kTwoPi);
}

TEST(GaussianPattern, PeakAtBoresight) {
  const GaussianPattern p(deg_to_rad(20.0));
  EXPECT_DOUBLE_EQ(p.gain_dbi(0.0), p.peak_gain_dbi());
  EXPECT_GT(p.gain_dbi(0.0), p.gain_dbi(0.1));
  EXPECT_GT(p.gain_dbi(0.1), p.gain_dbi(0.2));
}

TEST(GaussianPattern, HalfPowerAtHalfBeamwidth) {
  const GaussianPattern p(deg_to_rad(20.0));
  const double at_edge = p.gain_dbi(deg_to_rad(10.0));
  EXPECT_NEAR(p.peak_gain_dbi() - at_edge, 3.0, 0.02);
}

TEST(GaussianPattern, SymmetricAndWrapped) {
  const GaussianPattern p(deg_to_rad(30.0));
  EXPECT_DOUBLE_EQ(p.gain_dbi(0.4), p.gain_dbi(-0.4));
  EXPECT_NEAR(p.gain_dbi(kTwoPi + 0.4), p.gain_dbi(0.4), 1e-9);
}

TEST(GaussianPattern, SidelobeFloorRelativeToPeak) {
  const GaussianPattern p(deg_to_rad(20.0), -20.0);
  EXPECT_NEAR(p.peak_gain_dbi() - p.gain_dbi(kPi), 20.0, 1e-6);
}

TEST(GaussianPattern, InvalidArgumentsThrow) {
  EXPECT_THROW(GaussianPattern(0.0), std::invalid_argument);
  EXPECT_THROW(GaussianPattern(-1.0), std::invalid_argument);
  EXPECT_THROW(GaussianPattern(7.0), std::invalid_argument);  // > 2*pi
  EXPECT_THROW(GaussianPattern(deg_to_rad(20.0), 0.0), std::invalid_argument);
  EXPECT_THROW(GaussianPattern(deg_to_rad(20.0), 5.0), std::invalid_argument);
}

TEST(GaussianPattern, FloorShortcutMatchesReferenceBitForBit) {
  // gain_linear returns the floor without calling exp past a cut just
  // outside the lobe/floor crossing; the result must be the very double
  // of the full formula, max(peak * exp(-theta^2 / 2 sigma^2), floor).
  for (const double hpbw_deg : {5.0, 20.0, 60.0, 120.0}) {
    for (const double floor_db : {-0.001, -10.0, -20.0, -40.0, -100.0}) {
      const GaussianPattern p(deg_to_rad(hpbw_deg), floor_db);
      // The pattern's own constants, formed by the same expressions.
      const double sigma =
          deg_to_rad(hpbw_deg) / (2.0 * std::sqrt(2.0 * std::log(2.0)));
      const double peak = p.gain_linear(0.0);
      const double floor = from_db(floor_db) * peak;
      const auto reference = [&](double theta) {
        const double lobe =
            peak * std::exp(-theta * theta / (2.0 * sigma * sigma));
        return std::max(lobe, floor);
      };
      const auto check = [&](double theta) {
        if (std::fabs(theta) > kPi) {
          return;  // the reference is written for unwrapped offsets
        }
        const double want = reference(theta);
        const double got = p.gain_linear(theta);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << hpbw_deg << " deg, " << floor_db << " dB, theta = " << theta
            << ": got " << got << ", want " << want;
      };
      for (int i = -1999; i <= 2000; ++i) {
        check(kPi * static_cast<double>(i) / 2000.0);
      }
      // The true crossing and the cut 1e-6 (relative, in theta^2) beyond
      // it, each stepped across ulp by ulp; then the band between them.
      const double crossing =
          sigma * std::sqrt(2.0 * -std::log(from_db(floor_db)));
      const double cut = crossing * std::sqrt(1.0 + 1e-6);
      for (const double edge : {crossing, cut}) {
        double up = edge;
        double down = edge;
        for (int i = 0; i < 256; ++i) {
          for (const double theta : {up, down}) {
            check(theta);
            check(-theta);
          }
          up = std::nextafter(up, std::numeric_limits<double>::infinity());
          down = std::nextafter(down, 0.0);
        }
      }
      for (int i = 0; i <= 1000; ++i) {
        const double u = static_cast<double>(i) / 1000.0;
        check(crossing + (cut - crossing) * 2.0 * u);
      }
    }
  }
}

TEST(GaussianPattern, NormalisationMatchesFullIntegralBitForBit) {
  // The constructor's Simpson integral takes the floor without calling exp
  // past the same cut; peak and floor must be the very doubles of the
  // integral that calls exp at every sample.
  const auto reference_peak = [](double hpbw_rad, double floor_db) {
    const double sigma = hpbw_rad / (2.0 * std::sqrt(2.0 * std::log(2.0)));
    const double rel_floor = from_db(floor_db);
    constexpr int kSamples = 4096;
    const double h = kTwoPi / kSamples;
    double integral = 0.0;
    for (int i = 0; i <= kSamples; ++i) {
      const double theta = -kPi + static_cast<double>(i) * h;
      const double shape = std::max(
          std::exp(-theta * theta / (2.0 * sigma * sigma)), rel_floor);
      const double w =
          (i == 0 || i == kSamples) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
      integral += w * shape;
    }
    integral *= h / 3.0;
    return kTwoPi / integral;
  };
  for (int hpbw_deg = 1; hpbw_deg <= 360; ++hpbw_deg) {
    for (const double floor_db :
         {-40.0, -30.0, -20.0, -13.0, -6.0, -1.0, -0.1, -0.01, -0.001}) {
      const double hpbw = deg_to_rad(static_cast<double>(hpbw_deg));
      const GaussianPattern p(hpbw, floor_db);
      const double want_peak = reference_peak(hpbw, floor_db);
      const double want_floor = from_db(floor_db) * want_peak;
      // gain_linear(0) is the peak itself (exp(-0) == 1); at a half turn
      // it is max(lobe, floor), which the shortcut test pins to the full
      // formula.
      const double got_peak = p.gain_linear(0.0);
      const double sigma = hpbw / (2.0 * std::sqrt(2.0 * std::log(2.0)));
      const double want_far = std::max(
          want_peak * std::exp(-kPi * kPi / (2.0 * sigma * sigma)),
          want_floor);
      const double got_far = p.gain_linear(kPi);
      ASSERT_EQ(std::memcmp(&got_peak, &want_peak, sizeof got_peak), 0)
          << hpbw_deg << " deg, " << floor_db << " dB";
      ASSERT_EQ(std::memcmp(&got_far, &want_far, sizeof got_far), 0)
          << hpbw_deg << " deg, " << floor_db << " dB";
    }
  }
}

/// Energy conservation: mean linear gain over azimuth ~ 1 (0 dBi) — a beam
/// concentrates energy, it does not create it. Checked across the paper's
/// codebook beamwidths.
class GaussianEnergy : public ::testing::TestWithParam<double> {};

TEST_P(GaussianEnergy, MeanGainIsUnity) {
  const GaussianPattern p(deg_to_rad(GetParam()));
  double sum = 0.0;
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    const double theta = -kPi + kTwoPi * (i + 0.5) / kN;
    sum += from_db(p.gain_dbi(theta));
  }
  EXPECT_NEAR(sum / kN, 1.0, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Beamwidths, GaussianEnergy,
                         ::testing::Values(10.0, 20.0, 45.0, 60.0, 90.0));

TEST(GaussianPattern, NarrowerMeansHigherPeak) {
  const GaussianPattern b20(deg_to_rad(20.0));
  const GaussianPattern b60(deg_to_rad(60.0));
  EXPECT_GT(b20.peak_gain_dbi(), b60.peak_gain_dbi());
  // 20 vs 60 deg should differ by roughly 10*log10(3) = 4.8 dB.
  EXPECT_NEAR(b20.peak_gain_dbi() - b60.peak_gain_dbi(), 4.8, 1.0);
}

TEST(UlaPattern, PeakGainIsElementCount) {
  for (const unsigned n : {1U, 2U, 4U, 8U, 16U}) {
    const UlaPattern p(n);
    EXPECT_NEAR(p.peak_gain_dbi(), to_db(n), 1e-9);
  }
}

TEST(UlaPattern, BeamwidthShrinksWithElements) {
  double last = kTwoPi;
  for (const unsigned n : {2U, 4U, 8U, 16U, 32U}) {
    const UlaPattern p(n);
    EXPECT_LT(p.hpbw_rad(), last);
    last = p.hpbw_rad();
  }
}

TEST(UlaPattern, ClassicBeamwidthFormula) {
  // Broadside lambda/2 ULA: HPBW ~ 0.886 lambda / (N d) = 1.772/N rad.
  // The cos^2 element envelope narrows it slightly; allow 15%.
  const UlaPattern p(16);
  EXPECT_NEAR(p.hpbw_rad(), 1.772 / 16.0, 0.15 * 1.772 / 16.0);
}

TEST(UlaPattern, NoMirrorBacklobe) {
  // The element envelope must suppress the bare array factor's perfect
  // backlobe; otherwise beam search would see ghost cells behind the array.
  const UlaPattern p(8);
  EXPECT_LT(p.gain_dbi(kPi), p.gain_dbi(0.0) - 25.0);
}

TEST(UlaPattern, SidelobesWellBelowMainLobe) {
  const UlaPattern p(8);
  double worst_sidelobe = -1e9;
  for (double theta = p.hpbw_rad(); theta < kPi / 2.0; theta += 1e-3) {
    worst_sidelobe = std::max(worst_sidelobe, p.gain_dbi(theta));
  }
  EXPECT_LT(worst_sidelobe, p.peak_gain_dbi() - 10.0);
}

TEST(UlaPattern, ZeroElementsThrows) {
  EXPECT_THROW(UlaPattern(0), std::invalid_argument);
}

TEST(UlaElementsForHpbw, MeetsRequestedWidth) {
  for (const double deg : {20.0, 40.0, 60.0}) {
    const unsigned n = ula_elements_for_hpbw(deg_to_rad(deg));
    EXPECT_LE(UlaPattern(n).hpbw_rad(), deg_to_rad(deg) + 1e-9);
    if (n > 1) {
      EXPECT_GT(UlaPattern(n - 1).hpbw_rad(), deg_to_rad(deg));
    }
  }
}

TEST(UlaElementsForHpbw, InvalidThrows) {
  EXPECT_THROW((void)ula_elements_for_hpbw(0.0), std::invalid_argument);
  EXPECT_THROW((void)ula_elements_for_hpbw(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace st::phy
