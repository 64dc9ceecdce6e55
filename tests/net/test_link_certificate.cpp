// The link monitor's certified hold (RadioEnvironment::certified_hold_until)
// and the skip rule built on it (LinkMonitor).
//
//  * Soundness: over every certified mobility model x the 20°/60°/omni
//    codebooks x random instants, beam pairs and margins, the true SNR
//    sampled every 100 µs across [t0, hold) stays within the margin of
//    its value at t0.
//  * Fallbacks: ULA codebooks, coherent combining, trace playback and a
//    blockage ramp get no certificate.
//  * Equivalence: a LinkMonitor and a per-tick reference that evaluates
//    the SNR every 1 ms, side by side in one simulator, agree on every
//    outage entry, the RLF instant and the failure callback, while beams
//    switch at odd instants and on tick instants.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/angles.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "mobility/composite.hpp"
#include "mobility/trace.hpp"
#include "net/deployment.hpp"
#include "net/environment.hpp"
#include "net/link_monitor.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace st::net {
namespace {

using namespace st::sim::literals;
using sim::Duration;
using sim::Time;

constexpr Duration kHorizon = 4000_ms;

Duration us(std::uint64_t n) {
  return Duration::microseconds(static_cast<std::int64_t>(n));
}

Deployment row() { return make_cell_row(DeploymentConfig{}, 3); }

enum class Motion {
  kWalk,
  kRotation,
  kVehicular,
  kPingPong,
  kRotatedWalk,
  kStationary,
};

std::shared_ptr<const mobility::MobilityModel> make_motion(Motion motion) {
  const Deployment d = row();
  switch (motion) {
    case Motion::kWalk:
      return make_edge_walk(d, 1.4, kHorizon, 11);
    case Motion::kRotation:
      return make_edge_rotation(d, 120.0);
    case Motion::kVehicular:
      return make_drive(d, mph_to_mps(20.0));
    case Motion::kPingPong:
      // Short legs: several reversals inside the horizon.
      return make_edge_ping_pong(d, 3.0, 2.5, kHorizon);
    case Motion::kRotatedWalk:
      return std::make_shared<mobility::RotatedModel>(
          make_edge_walk(d, 1.4, kHorizon, 12), deg_to_rad(45.0));
    case Motion::kStationary: {
      Pose pose;
      pose.position = {d.boundary_between(0, 1).x - 5.0,
                       d.config.corridor_offset_m, 0.0};
      return std::make_shared<mobility::Stationary>(pose);
    }
  }
  return nullptr;
}

/// The default impaired channel with blockage made frequent, so windows
/// and ramps fall inside a short horizon.
EnvironmentConfig busy_environment(std::uint64_t seed) {
  EnvironmentConfig config;
  config.channel.blockage.rate_per_s = 2.0;
  config.horizon = kHorizon + 1000_ms;
  config.seed = seed;
  return config;
}

phy::Codebook codebook_for(double beamwidth_deg) {
  if (beamwidth_deg <= 0.0) {
    return phy::Codebook::omni();
  }
  return phy::Codebook::from_beamwidth_deg(beamwidth_deg);
}

RadioEnvironment make_env(const EnvironmentConfig& config,
                          std::shared_ptr<const mobility::MobilityModel> motion,
                          phy::Codebook codebook) {
  Deployment d = row();
  return RadioEnvironment(config, std::move(d.base_stations),
                          std::move(motion), std::move(codebook));
}

RadioEnvironment standing_env(const EnvironmentConfig& config) {
  return make_env(config, make_motion(Motion::kStationary), codebook_for(20));
}

struct CertificateCase {
  Motion motion;
  double beamwidth_deg;  ///< 0 = omni
};

class CertificateSoundness
    : public ::testing::TestWithParam<CertificateCase> {};

TEST_P(CertificateSoundness, SnrStaysWithinMarginUntilHold) {
  const CertificateCase c = GetParam();
  const auto motion_index = static_cast<std::uint64_t>(c.motion);
  const std::uint64_t seed =
      17 + 7 * motion_index + static_cast<std::uint64_t>(c.beamwidth_deg);
  EnvironmentConfig config = busy_environment(seed);
  // Every path-loss model (free space, UMi LOS, UMi NLOS) over the sweep.
  config.channel.pathloss.model = static_cast<phy::PathLossModel>(seed % 3);
  const RadioEnvironment env =
      make_env(config, make_motion(c.motion), codebook_for(c.beamwidth_deg));

  constexpr double kMargins[] = {0.25, 1.0, 4.0, 12.0};
  Rng rng(seed);
  int certified = 0;
  constexpr int kTrials = 32;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Time t0 = Time::zero() + us(rng.uniform_index(3'500'000));
    const auto cell = static_cast<CellId>(rng.uniform_index(3));
    phy::BeamId tx = 0;
    phy::BeamId rx = 0;
    if (trial % 2 == 0) {
      const auto best = env.ground_truth_best_pair(cell, t0);
      tx = best.tx_beam;
      rx = best.rx_beam;
    } else {
      const std::size_t n_tx = env.bs(cell).codebook().size();
      tx = static_cast<phy::BeamId>(rng.uniform_index(n_tx));
      const std::size_t n_rx = env.ue_codebook().size();
      rx = static_cast<phy::BeamId>(rng.uniform_index(n_rx));
    }
    const double margin = kMargins[trial % 4];
    const Time hold = env.certified_hold_until(cell, tx, rx, t0, margin);
    ASSERT_GE(hold, t0);
    ASSERT_LE(hold, t0 + 100_ms);
    if (hold > t0 + 1_ms) {
      ++certified;
    }
    const double snr0 = env.true_dl_snr_db(cell, tx, rx, t0);
    std::vector<Time> samples;
    for (Time t = t0 + 100_us; t < hold; t = t + 100_us) {
      samples.push_back(t);
    }
    if (hold > t0) {
      samples.push_back(hold - 1_ns);
    }
    for (const Time t : samples) {
      const double delta = env.true_dl_snr_db(cell, tx, rx, t) - snr0;
      ASSERT_LT(std::fabs(delta), margin) << t0.ms() << " ms -> " << t.ms();
    }
  }
  // The bound is not vacuous: a good share of the trials earn a hold.
  EXPECT_GE(certified, kTrials / 4);
}

std::vector<CertificateCase> certificate_cases() {
  std::vector<CertificateCase> cases;
  cases.reserve(18);
  for (int m = 0; m <= static_cast<int>(Motion::kStationary); ++m) {
    for (const double beamwidth : {20.0, 60.0, 0.0}) {
      cases.push_back({static_cast<Motion>(m), beamwidth});
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<CertificateCase>& info) {
  constexpr const char* kMotionNames[] = {
      "Walk", "Rotation", "Vehicular", "PingPong", "RotatedWalk", "Stationary"};
  const CertificateCase& c = info.param;
  std::string name = kMotionNames[static_cast<int>(c.motion)];
  if (c.beamwidth_deg <= 0.0) {
    return name + "Omni";
  }
  return name + std::to_string(static_cast<int>(c.beamwidth_deg)) + "deg";
}

INSTANTIATE_TEST_SUITE_P(MobilityByCodebook, CertificateSoundness,
                         ::testing::ValuesIn(certificate_cases()), case_name);

/// Hold granted at `t0` for the instantaneous best pair of cell 0.
Time best_pair_hold(const RadioEnvironment& env, Time t0, double margin) {
  const auto best = env.ground_truth_best_pair(0, t0);
  return env.certified_hold_until(0, best.tx_beam, best.rx_beam, t0, margin);
}

TEST(CertificateFallback, UlaCodebookGetsNoCertificate) {
  const auto walk = make_motion(Motion::kWalk);
  const auto ula = phy::Codebook::ula_from_beamwidth_deg(20.0);
  const RadioEnvironment env = make_env(busy_environment(3), walk, ula);
  for (const Time t0 : {Time::zero(), Time::zero() + 777_ms}) {
    EXPECT_EQ(best_pair_hold(env, t0, 20.0), t0);
  }
}

TEST(CertificateFallback, CoherentCombiningGetsNoCertificate) {
  EnvironmentConfig config = busy_environment(3);
  config.channel.coherent_combining = true;
  const RadioEnvironment env = standing_env(config);
  const Time t0 = Time::zero() + 5_ms;
  EXPECT_EQ(best_pair_hold(env, t0, 20.0), t0);
}

TEST(CertificateFallback, TracePlaybackGetsNoCertificate) {
  const auto walk = make_motion(Motion::kWalk);
  const Time end = Time::zero() + kHorizon;
  auto trace = std::make_shared<mobility::TracePlayback>(
      mobility::sample_trace(*walk, Time::zero(), end, 10_ms));
  const RadioEnvironment env =
      make_env(busy_environment(3), std::move(trace), codebook_for(20.0));
  const Time t0 = Time::zero() + 5_ms;
  EXPECT_EQ(best_pair_hold(env, t0, 20.0), t0);
}

TEST(CertificateFallback, BlockageRampGetsNoCertificate) {
  const RadioEnvironment env = standing_env(busy_environment(3));
  const auto& events = env.channel(0).blockage().events();
  ASSERT_FALSE(events.empty());
  const auto& e = events.front();
  const Duration half_ramp = Duration::nanoseconds(e.ramp.ns() / 2);
  const Time rising = e.onset + half_ramp;
  const Time falling = e.onset + e.ramp + e.flat + half_ramp;
  EXPECT_EQ(best_pair_hold(env, rising, 20.0), rising);
  EXPECT_EQ(best_pair_hold(env, falling, 20.0), falling);
  // On the flat phase the window is wide again; the hold ends with it.
  const Time flat = e.onset + e.ramp + Duration::nanoseconds(e.flat.ns() / 2);
  EXPECT_LE(best_pair_hold(env, flat, 20.0), e.onset + e.ramp + e.flat);
}

TEST(CertificateFallback, NoMarginNoCertificate) {
  const RadioEnvironment env = standing_env(busy_environment(3));
  EXPECT_EQ(best_pair_hold(env, Time::zero(), 0.0), Time::zero());
  EXPECT_EQ(best_pair_hold(env, Time::zero(), -3.0), Time::zero());
}

/// The pre-certificate monitor: evaluates the SNR on every tick.
class PerTickReference {
 public:
  PerTickReference(sim::Simulator& simulator, const RadioEnvironment& env,
                   std::function<phy::BeamId()> rx_beam, Duration window)
      : simulator_(simulator),
        env_(env),
        rx_beam_(std::move(rx_beam)),
        window_(window) {}

  void start() { tick(); }

  struct Outage {
    Time t;
    double snr_db;
  };
  std::vector<Outage> outages;
  std::optional<Time> failed_at;
  double failure_snr_db = 0.0;

 private:
  void tick() {
    const Time now = simulator_.now();
    const phy::BeamId tx = env_.bs(0).serving_tx_beam();
    const double snr = env_.true_dl_snr_db(0, tx, rx_beam_(), now);
    if (snr >= env_.link_budget().config().data_threshold_snr_db) {
      below_since_.reset();
    } else if (!below_since_.has_value()) {
      below_since_ = now;
      outages.push_back({now, snr});
    } else if (now - *below_since_ >= window_) {
      failed_at = now;
      failure_snr_db = snr;
      return;
    }
    simulator_.schedule_after(1_ms, [this] { tick(); });
  }

  sim::Simulator& simulator_;
  const RadioEnvironment& env_;
  std::function<phy::BeamId()> rx_beam_;
  Duration window_;
  std::optional<Time> below_since_;
};

TEST(LinkMonitorEquivalence, MatchesPerTickEvaluation) {
  EnvironmentConfig config;
  config.seed = 5;
  RadioEnvironment env =
      make_env(config, make_motion(Motion::kWalk), codebook_for(20.0));
  const auto best = env.ground_truth_best_pair(0, Time::zero());
  env.bs_mutable(0).set_serving_tx_beam(best.tx_beam);
  const auto n_rx = static_cast<phy::BeamId>(env.ue_codebook().size());
  const auto n_tx = static_cast<phy::BeamId>(env.bs(0).codebook().size());

  sim::Simulator sim;
  phy::BeamId rx = best.rx_beam;
  // A beam `kind` steps from the true best: 0 none, 1 left, 2 right, 3
  // the opposite beam.
  const auto near_best = [&](std::uint64_t kind) {
    const phy::BeamId tx = env.bs(0).serving_tx_beam();
    const phy::BeamId b = env.ground_truth_best_rx(0, tx, sim.now()).beam;
    switch (kind) {
      case 1:
        return env.ue_codebook().left_neighbour(b);
      case 2:
        return env.ue_codebook().right_neighbour(b);
      case 3:
        return (b + n_rx / 2) % n_rx;
      default:
        return b;
    }
  };
  // RX beam switches at odd instants and on tick instants (scheduled up
  // front, so they run before the ticks there): to the true best beam,
  // or for 20-50 ms to a neighbour of it or to the opposite beam —
  // outages shorter than the failure window.
  Rng rng(99);
  Time at = Time::zero();
  for (int i = 0; i < 40; ++i) {
    at = at + us(40'000 + rng.uniform_index(40'000));
    if (i % 3 == 0) {
      at = Time::zero() + Duration::milliseconds(at.ns() / 1'000'000);
    }
    const std::uint64_t kind = rng.uniform_index(4);
    sim.schedule_at(at, [&, kind] { rx = near_best(kind); });
    if (kind != 0) {
      const Time back = at + us(20'000 + rng.uniform_index(30'000));
      sim.schedule_at(back, [&] { rx = near_best(0); });
    }
  }
  // Bursts of 2 ms excursions inside one hold: the healthy ticks on the
  // held pair between them end each outage, so every excursion is a new
  // outage entry.
  for (const Time start : {Time::zero() + 600_ms, Time::zero() + 2400_ms}) {
    for (int k = 0; k < 4; ++k) {
      const Time away = start + k * 5_ms;
      sim.schedule_at(away, [&] { rx = near_best(3); });
      sim.schedule_at(away + 2_ms, [&] { rx = near_best(0); });
    }
  }
  // A switch on a tick instant after both ticks there ran: scheduled
  // once those ticks are queued, so it runs after them.
  sim.schedule_at(Time::zero() + 1999500_us, [&] {
    sim.schedule_at(Time::zero() + 2000_ms, [&] { rx = near_best(2); });
  });
  sim.schedule_at(Time::zero() + 2030_ms, [&] { rx = near_best(0); });
  // Retarget the serving TX beam mid-run, then lose the link for good.
  sim.schedule_at(Time::zero() + 1234567_us, [&] {
    env.bs_mutable(0).set_serving_tx_beam((best.tx_beam + 1) % n_tx);
  });
  sim.schedule_at(Time::zero() + 3500_ms, [&] {
    env.bs_mutable(0).set_serving_tx_beam((best.tx_beam + n_tx / 2) % n_tx);
  });

  LinkMonitorConfig monitor_config;
  monitor_config.failure_window = 80_ms;
  LinkMonitor monitor(sim, env, monitor_config);
  obs::TraceRecorder trace;
  obs::ProtocolCounters counters;
  monitor.set_sinks({.trace = &trace, .counters = &counters});
  std::optional<Time> callback_at;
  const auto current_rx = [&rx] { return rx; };
  monitor.start(0, current_rx, [&] { callback_at = sim.now(); });
  PerTickReference reference(sim, env, current_rx,
                             monitor_config.failure_window);
  reference.start();
  sim.run_until(Time::zero() + kHorizon);

  std::vector<PerTickReference::Outage> outages;
  std::optional<obs::TraceEvent> rlf;
  const obs::TraceBuffer& events = trace.buffer(obs::Component::kLinkMonitor);
  for (const obs::TraceEvent& e : events.snapshot()) {
    if (e.type == obs::TraceEventType::kLinkBelowThreshold) {
      outages.push_back({e.t, e.value});
    } else if (e.type == obs::TraceEventType::kRadioLinkFailure) {
      rlf = e;
    }
  }
  ASSERT_GE(reference.outages.size(), 10U) << "scenario lost its outages";
  ASSERT_EQ(outages.size(), reference.outages.size());
  for (std::size_t i = 0; i < outages.size(); ++i) {
    EXPECT_EQ(outages[i].t, reference.outages[i].t) << i;
    EXPECT_EQ(outages[i].snr_db, reference.outages[i].snr_db) << i;
  }
  ASSERT_TRUE(reference.failed_at.has_value());
  ASSERT_TRUE(rlf.has_value());
  EXPECT_EQ(rlf->t, *reference.failed_at);
  EXPECT_EQ(rlf->value, reference.failure_snr_db);
  ASSERT_TRUE(callback_at.has_value());
  EXPECT_EQ(*callback_at, *reference.failed_at);

  // The monitor really skipped work, and every tick is accounted for.
  const std::uint64_t certified =
      counters[obs::ProtocolCounter::kLinkChecksCertified];
  const std::uint64_t evaluated =
      counters[obs::ProtocolCounter::kLinkChecksEvaluated];
  EXPECT_GT(certified, evaluated / 4);
  const auto ticks = static_cast<std::uint64_t>(rlf->t.ns() / 1'000'000) + 1;
  EXPECT_EQ(certified + evaluated, ticks);
}

TEST(LinkCertificateCheck, ThrowsOnlyBelowThreshold) {
  const Time now = Time::zero() + 5_ms;
  EXPECT_NO_THROW(invariants::check_link_certificate(3.0, 0.0, now, now));
  EXPECT_NO_THROW(invariants::check_link_certificate(0.0, 0.0, now, now));
  EXPECT_THROW(invariants::check_link_certificate(-0.5, 0.0, now, now),
               contracts::ContractViolation);
}

}  // namespace
}  // namespace st::net
