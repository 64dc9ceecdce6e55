// Certified SSB misses (RadioEnvironment::observe_ssb): an observation the
// slope bound proves undetectable is settled from the cached snapshot,
// with the detection uniform drawn first and no refresh.
//
//  * Equivalence: environment A observes as it likes; its twin B asks for
//    the same instant's SNR before every observation, so B's cache always
//    holds that instant and every B observation takes the exact path.
//    Over walk, rotation and vehicular mobility x 20°/60° codebooks x
//    interference on and off, every observation and the state of both
//    RNG streams afterwards are bitwise equal, and A certified misses.
//  * Fallbacks: coherent combining, ULA codebooks, a blockage ramp and
//    trace playback certify nothing.
//  * No draw, no certificate: a link budget whose detection probability
//    rounds to 1, or underflows to 0, never takes the draw-first path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "mobility/trace.hpp"
#include "net/deployment.hpp"
#include "net/environment.hpp"

namespace st::net {
namespace {

using namespace st::sim::literals;
using sim::Duration;
using sim::Time;

constexpr Duration kHorizon = 3000_ms;

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

Deployment row() { return make_cell_row(DeploymentConfig{}, 3); }

enum class Motion { kWalk, kRotation, kVehicular };

std::shared_ptr<const mobility::MobilityModel> make_motion(Motion motion,
                                                           std::uint64_t seed) {
  const Deployment d = row();
  switch (motion) {
    case Motion::kWalk:
      return make_edge_walk(d, 1.4, kHorizon, seed);
    case Motion::kRotation:
      return make_edge_rotation(d, 120.0);
    case Motion::kVehicular:
      return make_drive(d, mph_to_mps(20.0));
  }
  return nullptr;
}

EnvironmentConfig impaired_environment(std::uint64_t seed) {
  EnvironmentConfig config;
  config.channel.blockage.rate_per_s = 2.0;  // windows inside the horizon
  config.horizon = kHorizon + 1000_ms;
  config.seed = seed;
  return config;
}

RadioEnvironment make_env(const EnvironmentConfig& config,
                          std::shared_ptr<const mobility::MobilityModel> motion,
                          phy::Codebook codebook) {
  Deployment d = row();
  return RadioEnvironment(config, std::move(d.base_stations),
                          std::move(motion), std::move(codebook));
}

/// One SSB listening attempt of a scripted sequence.
struct Attempt {
  Time t;
  CellId cell;
  phy::BeamId tx;
  phy::BeamId rx;
};

/// A search- and tracking-like script: mostly consecutive SSB slots
/// (125 µs apart, some at the same instant), cells and TX beams varying,
/// the RX beam held per 20 ms dwell, some attempts on the best RX beam for
/// the slot (from `oracle`, a third twin), and jumps past the 100 ms cap.
std::vector<Attempt> script(const RadioEnvironment& oracle, std::uint64_t seed,
                            int n) {
  Rng rng(seed);
  const std::size_t n_cells = oracle.cell_count();
  const std::size_t n_rx = oracle.ue_codebook().size();
  std::vector<Attempt> attempts;
  Time t = Time::zero() + 1_ms;
  Time dwell_end = t;
  phy::BeamId dwell_rx = 0;
  for (int i = 0; i < n; ++i) {
    const double r = rng.uniform();
    if (r < 0.05) {
      t = t + Duration::microseconds(
                  static_cast<std::int64_t>(rng.uniform_index(150'000)));
    } else if (r < 0.15) {
      // same instant: a cache hit for a repeated cell
    } else if (r < 0.9) {
      t = t + 125_us;
    } else {
      t = t + 1_ms;
    }
    if (t >= Time::zero() + kHorizon) {
      break;
    }
    if (t >= dwell_end) {
      dwell_rx = static_cast<phy::BeamId>(rng.uniform_index(n_rx));
      dwell_end = t + 20_ms;
    }
    const auto cell = static_cast<CellId>(rng.uniform_index(n_cells));
    const auto tx = static_cast<phy::BeamId>(
        rng.uniform_index(oracle.bs(cell).codebook().size()));
    phy::BeamId rx = dwell_rx;
    if (rng.uniform() < 0.2) {
      rx = oracle.ground_truth_best_rx(cell, tx, t).beam;
    }
    attempts.push_back({t, cell, tx, rx});
  }
  return attempts;
}

/// 64 uplink attempts powered to land exactly on the detection threshold:
/// p ~ 0.5, one uniform of the detection stream each.
std::vector<std::uint64_t> detection_draws(RadioEnvironment& env, Time t) {
  const auto best = env.ground_truth_best_pair(0, t);
  const double dl_snr = env.true_dl_snr_db(0, best.tx_beam, best.rx_beam, t);
  const double threshold_db =
      env.link_budget().config().detection_threshold_snr_db;
  const double extra_db = threshold_db - dl_snr -
                          env.config().ue_tx_power_dbm +
                          env.bs(0).tx_power_dbm();
  std::vector<std::uint64_t> out;
  for (int i = 0; i < 64; ++i) {
    out.push_back(env.uplink_success(0, best.rx_beam, best.tx_beam, t, extra_db)
                      ? 1U
                      : 0U);
  }
  return out;
}

/// Draws that expose both RNG streams: SSB observations on the best pair
/// (a detected one carries measurement noise in its RSS), then
/// detection_draws.
std::vector<std::uint64_t> trailing_draws(RadioEnvironment& env, Time t) {
  std::vector<std::uint64_t> out;
  const auto best = env.ground_truth_best_pair(0, t);
  for (int i = 0; i < 8; ++i) {
    const SsbObservation obs =
        env.observe_ssb(0, best.tx_beam, best.rx_beam, t);
    out.push_back(obs.detected ? 1U : 0U);
    out.push_back(bits(obs.rss_dbm));
  }
  for (const std::uint64_t d : detection_draws(env, t)) {
    out.push_back(d);
  }
  return out;
}

struct Tally {
  std::uint64_t certified_misses = 0;
  int detected = 0;
};

/// Runs `attempts` on A as-is and on B with a same-instant SNR query
/// first, requiring equal observations and equal trailing draws.
Tally expect_exact(RadioEnvironment& a, RadioEnvironment& b,
                   const std::vector<Attempt>& attempts,
                   const std::string& label) {
  Tally tally;
  for (const Attempt& at : attempts) {
    const SsbObservation oa = a.observe_ssb(at.cell, at.tx, at.rx, at.t);
    (void)b.true_dl_snr_db(at.cell, at.tx, at.rx, at.t);
    const SsbObservation ob = b.observe_ssb(at.cell, at.tx, at.rx, at.t);
    EXPECT_EQ(oa.detected, ob.detected) << label << " at " << at.t.ms();
    EXPECT_EQ(bits(oa.rss_dbm), bits(ob.rss_dbm)) << label << " at "
                                                  << at.t.ms();
    EXPECT_EQ(bits(oa.snr_db), bits(ob.snr_db)) << label << " at "
                                                << at.t.ms();
    tally.detected += oa.detected ? 1 : 0;
  }
  const Time end = attempts.back().t + 1_ms;
  EXPECT_EQ(trailing_draws(a, end), trailing_draws(b, end)) << label;
  EXPECT_EQ(b.snapshot_stats().certified_misses, 0U) << label;
  EXPECT_EQ(a.ssb_observation_count(), b.ssb_observation_count()) << label;
  tally.certified_misses = a.snapshot_stats().certified_misses;
  return tally;
}

TEST(Environment, CertifiedMissMatchesExactObservation) {
  std::uint64_t seed = 40;
  for (const Motion motion :
       {Motion::kWalk, Motion::kRotation, Motion::kVehicular}) {
    for (const double beamwidth : {20.0, 60.0}) {
      for (const bool interference : {true, false}) {
        ++seed;
        EnvironmentConfig config = impaired_environment(seed);
        config.enable_interference = interference;
        const auto mobility = make_motion(motion, seed);
        const auto codebook = phy::Codebook::from_beamwidth_deg(beamwidth);
        RadioEnvironment a = make_env(config, mobility, codebook);
        RadioEnvironment b = make_env(config, mobility, codebook);
        const RadioEnvironment oracle = make_env(config, mobility, codebook);
        const std::string label =
            "motion " + std::to_string(static_cast<int>(motion)) + ", " +
            std::to_string(static_cast<int>(beamwidth)) +
            " deg, interference " + (interference ? "on" : "off");
        const Tally tally =
            expect_exact(a, b, script(oracle, seed, 4000), label);
        EXPECT_GT(tally.certified_misses, 0U) << label;
        EXPECT_GT(tally.detected, 0) << label;
      }
    }
  }
}

/// A's certified misses over a script, after checking it against B.
std::uint64_t certified_misses(
    const EnvironmentConfig& config,
    const std::shared_ptr<const mobility::MobilityModel>& mobility,
    const phy::Codebook& codebook, const std::vector<Attempt>& attempts,
    const std::string& label) {
  RadioEnvironment a = make_env(config, mobility, codebook);
  RadioEnvironment b = make_env(config, mobility, codebook);
  return expect_exact(a, b, attempts, label).certified_misses;
}

TEST(Environment, CertifiedMissNoCertificateFallsBack) {
  const EnvironmentConfig plain = impaired_environment(7);
  const auto walk = make_motion(Motion::kWalk, 7);
  const auto narrow = phy::Codebook::from_beamwidth_deg(20.0);
  const std::vector<Attempt> attempts =
      script(make_env(plain, walk, narrow), 7, 3000);
  // The same script certifies misses on the plain channel...
  EXPECT_GT(certified_misses(plain, walk, narrow, attempts, "plain"), 0U);

  // ...but not with phases,
  EnvironmentConfig coherent = plain;
  coherent.channel.coherent_combining = true;
  EXPECT_EQ(certified_misses(coherent, walk, narrow, attempts, "coherent"), 0U);

  // with ULA patterns (no finite slope bound),
  const auto ula = phy::Codebook::ula_from_beamwidth_deg(20.0);
  const std::vector<Attempt> ula_attempts =
      script(make_env(plain, walk, ula), 7, 3000);
  EXPECT_EQ(certified_misses(plain, walk, ula, ula_attempts, "ula"), 0U);

  // under trace playback (no motion certificate),
  auto trace = std::make_shared<mobility::TracePlayback>(mobility::sample_trace(
      *walk, Time::zero(), Time::zero() + kHorizon, 10_ms));
  EXPECT_EQ(certified_misses(plain, trace, narrow, attempts, "trace"), 0U);

  // or from an instant on a blockage ramp of the observed cell, where the
  // attenuation moves every nanosecond: cell 0 observed every 125 µs
  // across both ramps of its first event.
  const RadioEnvironment probe = make_env(plain, walk, narrow);
  const auto& events = probe.channel(0).blockage().events();
  ASSERT_FALSE(events.empty());
  const auto& e = events.front();
  ASSERT_LT(e.onset + e.ramp + e.flat + e.ramp, Time::zero() + kHorizon);
  const std::uint64_t n_tx = row().base_stations[0].codebook().size();
  const std::uint64_t n_rx = narrow.size();
  Rng rng(7);
  const auto observe_cell0 = [&](Time from, Duration span) {
    std::vector<Attempt> out;
    for (Time t = from + 1_us; t < from + span; t = t + 125_us) {
      out.push_back({t, 0, static_cast<phy::BeamId>(rng.uniform_index(n_tx)),
                     static_cast<phy::BeamId>(rng.uniform_index(n_rx))});
    }
    return out;
  };
  const Time flat = e.onset + e.ramp;
  const Time fall = flat + e.flat;
  const std::vector<Attempt> rising = observe_cell0(e.onset, e.ramp);
  const std::vector<Attempt> falling = observe_cell0(fall, e.ramp);
  EXPECT_EQ(certified_misses(plain, walk, narrow, rising, "rising"), 0U);
  EXPECT_EQ(certified_misses(plain, walk, narrow, falling, "falling"), 0U);
  // The flat phase between them is one window: the same sampling certifies.
  EXPECT_GT(certified_misses(plain, walk, narrow,
                             observe_cell0(flat, std::min(e.flat, e.ramp)),
                             "flat"),
            0U);
}

TEST(Environment, CertifiedMissNeverCertifiesWithoutADraw) {
  const auto walk = make_motion(Motion::kWalk, 5);
  const auto codebook = phy::Codebook::from_beamwidth_deg(20.0);
  for (const double threshold_db : {-1000.0, 1000.0}) {
    // -1000 dB: p rounds to 1 on every pair; +1000 dB: exp overflows and p
    // is 0. Either way Rng::bernoulli draws nothing, so neither may the
    // certified path.
    EnvironmentConfig config = impaired_environment(5);
    config.link.detection_threshold_snr_db = threshold_db;
    RadioEnvironment a = make_env(config, walk, codebook);
    RadioEnvironment b = make_env(config, walk, codebook);
    const std::vector<Attempt> attempts =
        script(make_env(config, walk, codebook), 5, 2000);
    for (const Attempt& at : attempts) {
      const SsbObservation oa = a.observe_ssb(at.cell, at.tx, at.rx, at.t);
      (void)b.true_dl_snr_db(at.cell, at.tx, at.rx, at.t);
      const SsbObservation ob = b.observe_ssb(at.cell, at.tx, at.rx, at.t);
      ASSERT_EQ(oa.detected, threshold_db < 0.0);
      ASSERT_EQ(ob.detected, oa.detected);
      ASSERT_EQ(bits(oa.rss_dbm), bits(ob.rss_dbm));
    }
    EXPECT_EQ(a.snapshot_stats().certified_misses, 0U) << threshold_db;
    const Time end = attempts.back().t + 1_ms;
    // No observation drew: A's detection stream is where a fresh one
    // starts (the environment derives it from its seed as "detection").
    Rng fresh(derive_seed(config.seed, "detection"));
    std::vector<std::uint64_t> expected;
    for (int i = 0; i < 64; ++i) {
      expected.push_back(fresh.uniform() < 0.5 ? 1U : 0U);
    }
    EXPECT_EQ(detection_draws(a, end), expected) << threshold_db;
    EXPECT_EQ(detection_draws(b, end), expected) << threshold_db;
    EXPECT_EQ(trailing_draws(a, end), trailing_draws(b, end)) << threshold_db;
  }
}

}  // namespace
}  // namespace st::net
