#include "phy/blockage.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace st::phy {
namespace {

using namespace st::sim::literals;
using sim::Duration;
using sim::Time;

BlockageConfig fast_config() {
  BlockageConfig c;
  c.rate_per_s = 2.0;
  c.mean_duration_s = 0.3;
  c.mean_attenuation_db = 20.0;
  c.attenuation_sigma_db = 0.0;
  c.ramp_s = 0.1;
  return c;
}

TEST(Blockage, DeterministicInSeed) {
  const BlockageProcess a(fast_config(), 10_s, 5);
  const BlockageProcess b(fast_config(), 10_s, 5);
  ASSERT_EQ(a.event_count(), b.event_count());
  for (double ms = 0.0; ms < 10'000.0; ms += 13.0) {
    const Time t = Time::zero() + Duration::seconds_of(ms / 1000.0);
    EXPECT_DOUBLE_EQ(a.attenuation_db(t), b.attenuation_db(t));
  }
}

TEST(Blockage, ZeroRateMeansNoEvents) {
  BlockageConfig c = fast_config();
  c.rate_per_s = 0.0;
  const BlockageProcess p(c, 100_s, 1);
  EXPECT_EQ(p.event_count(), 0U);
  EXPECT_DOUBLE_EQ(p.attenuation_db(Time::zero() + 5_s), 0.0);
}

TEST(Blockage, EventCountMatchesRate) {
  // Expect ~ rate * horizon events on average.
  double total = 0.0;
  constexpr int kRuns = 200;
  for (int i = 0; i < kRuns; ++i) {
    const BlockageProcess p(fast_config(), 50_s,
                            static_cast<std::uint64_t>(i) + 1);
    total += static_cast<double>(p.event_count());
  }
  // 2/s arrival with dead time per event (~0.5 s): effective rate ~1.3/s.
  const double mean = total / kRuns;
  EXPECT_GT(mean, 30.0);
  EXPECT_LT(mean, 100.0);
}

TEST(Blockage, RampUpFlatRampDownShape) {
  const BlockageProcess p(fast_config(), 30_s, 9);
  ASSERT_GT(p.event_count(), 0U);
  const auto& e = p.events().front();

  const Time before = e.onset - 1_ms;
  const Time mid_ramp = e.onset + Duration::seconds_of(0.05);
  const Time flat = e.onset + e.ramp + Duration::nanoseconds(e.flat.ns() / 2);
  const Time after = e.onset + 2 * e.ramp + e.flat + 1_ms;

  EXPECT_DOUBLE_EQ(p.attenuation_db(before), 0.0);
  EXPECT_NEAR(p.attenuation_db(mid_ramp), e.attenuation_db / 2.0, 1e-6);
  EXPECT_DOUBLE_EQ(p.attenuation_db(flat), e.attenuation_db);
  EXPECT_DOUBLE_EQ(p.attenuation_db(after), 0.0);
}

TEST(Blockage, EventsDoNotOverlap) {
  const BlockageProcess p(fast_config(), 60_s, 33);
  const auto& events = p.events();
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    const Time end_i =
        events[i].onset + 2 * events[i].ramp + events[i].flat;
    EXPECT_LT(end_i, events[i + 1].onset);
  }
}

TEST(Blockage, AttenuationIsContinuous) {
  // No step discontinuities: the 3 dB detector sees a slope, not a cliff.
  const BlockageProcess p(fast_config(), 20_s, 17);
  double last = p.attenuation_db(Time::zero());
  for (double s = 0.001; s < 20.0; s += 0.001) {
    const double v = p.attenuation_db(Time::zero() + Duration::seconds_of(s));
    EXPECT_LT(std::fabs(v - last), 0.5);  // <= 20 dB / 0.1 s * 1 ms + slack
    last = v;
  }
}

TEST(Blockage, AttenuationNonNegativeEverywhere) {
  const BlockageProcess p(fast_config(), 20_s, 21);
  for (double s = 0.0; s < 20.0; s += 0.017) {
    EXPECT_GE(p.attenuation_db(Time::zero() + Duration::seconds_of(s)), 0.0);
  }
}

TEST(Blockage, WindowCoversGapsFlatsAndRamps) {
  const BlockageProcess p(fast_config(), 30_s, 9);
  ASSERT_GT(p.event_count(), 0U);
  const auto& e = p.events().front();
  const Time full_at = e.onset + e.ramp;
  const Time fall_at = e.onset + e.ramp + e.flat;

  // Gap before the first event: clear until exactly its onset.
  const BlockageWindow gap = p.window(e.onset - 1_ms);
  EXPECT_DOUBLE_EQ(gap.attenuation_db, 0.0);
  EXPECT_EQ(gap.until, e.onset);
  EXPECT_LE(gap.from.ns(), (e.onset - 1_ms).ns());

  // Flat phase: the full attenuation holds for the whole plateau.
  const BlockageWindow flat =
      p.window(full_at + Duration::nanoseconds(e.flat.ns() / 2));
  EXPECT_DOUBLE_EQ(flat.attenuation_db, e.attenuation_db);
  EXPECT_EQ(flat.from, full_at);
  EXPECT_EQ(flat.until, fall_at);

  // Mid-ramp the attenuation changes every instant: a singleton window.
  const Time mid_ramp = e.onset + Duration::seconds_of(0.05);
  const BlockageWindow ramp = p.window(mid_ramp);
  EXPECT_DOUBLE_EQ(ramp.attenuation_db, p.attenuation_db(mid_ramp));
  EXPECT_EQ(ramp.from, mid_ramp);
  EXPECT_EQ(ramp.until, mid_ramp + 1_ns);
}

TEST(Blockage, WindowAfterTheLastEventIsUnbounded) {
  BlockageConfig c = fast_config();
  c.rate_per_s = 0.0;
  const BlockageProcess none(c, 10_s, 1);
  const BlockageWindow clear = none.window(Time::zero() + 5_s);
  EXPECT_DOUBLE_EQ(clear.attenuation_db, 0.0);
  EXPECT_LE(clear.from.ns(), 0);
  EXPECT_GT(clear.until.ns(), (Time::zero() + 100_s).ns());

  const BlockageProcess p(fast_config(), 10_s, 9);
  ASSERT_GT(p.event_count(), 0U);
  const auto& last = p.events().back();
  const Time end = last.onset + 2 * last.ramp + last.flat;
  const BlockageWindow after = p.window(end + 1_s);
  EXPECT_DOUBLE_EQ(after.attenuation_db, 0.0);
  EXPECT_EQ(after.from, end);
  EXPECT_GT(after.until.ns(), (end + 1000_s).ns());
}

TEST(Blockage, WindowAgreesWithAttenuationEverywhere) {
  // The reuse contract: for every t' in [from, until) the attenuation is
  // the window's value — sampled densely over a busy realisation.
  const BlockageProcess p(fast_config(), 20_s, 17);
  for (double s = 0.0; s < 20.0; s += 0.003) {
    const Time t = Time::zero() + Duration::seconds_of(s);
    const BlockageWindow w = p.window(t);
    ASSERT_LE(w.from.ns(), t.ns());
    ASSERT_GT(w.until.ns(), t.ns());
    ASSERT_DOUBLE_EQ(w.attenuation_db, p.attenuation_db(t)) << "s=" << s;
    // A second sample inside the same window must see the same value.
    const Time probe = w.until - 1_ns;
    ASSERT_DOUBLE_EQ(p.attenuation_db(probe), w.attenuation_db)
        << "s=" << s << " probe=" << probe.ns();
  }
}

TEST(Blockage, NegativeConfigThrows) {
  BlockageConfig bad = fast_config();
  bad.rate_per_s = -1.0;
  EXPECT_THROW(BlockageProcess(bad, 1_s, 1), std::invalid_argument);
  bad = fast_config();
  bad.ramp_s = -0.1;
  EXPECT_THROW(BlockageProcess(bad, 1_s, 1), std::invalid_argument);
}

TEST(Blockage, ZeroRampActsAsStep) {
  BlockageConfig c = fast_config();
  c.ramp_s = 0.0;
  const BlockageProcess p(c, 30_s, 3);
  ASSERT_GT(p.event_count(), 0U);
  const auto& e = p.events().front();
  EXPECT_DOUBLE_EQ(p.attenuation_db(e.onset - 1_ns), 0.0);
  EXPECT_DOUBLE_EQ(
      p.attenuation_db(e.onset + Duration::nanoseconds(e.flat.ns() / 2)),
      e.attenuation_db);
}

}  // namespace
}  // namespace st::phy
