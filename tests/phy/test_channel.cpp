#include "phy/channel.hpp"

#include <gtest/gtest.h>

#include "common/angles.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "phy/path_snapshot.hpp"
#include "phy/pathloss.hpp"

namespace st::phy {
namespace {

using namespace st::sim::literals;
using sim::Time;

/// Clean channel: no shadowing, no blockage, no reflectors — pure Friis +
/// beam gains, so expected values are computable by hand.
ChannelConfig clean_config() {
  ChannelConfig c;
  c.pathloss.model = PathLossModel::kFreeSpace;
  c.pathloss.carrier_hz = kDefaultCarrierHz;
  c.pathloss.oxygen_db_per_m = 0.0;
  c.shadowing.sigma_db = 0.0;
  c.blockage.rate_per_s = 0.0;
  c.multipath.reflector_count = 0;
  return c;
}

Pose pose_at(double x, double y, double yaw = 0.0) {
  Pose p;
  p.position = {x, y, 0.0};
  p.orientation = Quaternion::from_yaw(yaw);
  return p;
}

TEST(Channel, FriisWithOmniBeams) {
  const Channel ch(clean_config(), {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, 1_s, 1);
  const Codebook omni = Codebook::omni();
  const double rss =
      ch.rx_power_dbm(pose_at(0.0, 0.0), omni.beam(0), pose_at(10.0, 0.0),
                      omni.beam(0), Time::zero(), 10.0);
  EXPECT_NEAR(rss, 10.0 - free_space_loss_db(10.0, kDefaultCarrierHz), 1e-9);
}

TEST(Channel, BeamGainsAddWhenAligned) {
  const Channel ch(clean_config(), {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, 1_s, 1);
  const Codebook omni = Codebook::omni();
  const Codebook cb = Codebook::from_beamwidth_deg(20.0);
  const Pose tx = pose_at(0.0, 0.0);
  const Pose rx = pose_at(10.0, 0.0);

  const double omni_rss = ch.rx_power_dbm(tx, omni.beam(0), rx, omni.beam(0),
                                          Time::zero(), 10.0);
  // Point the best beams at each other (LOS along +x / -x).
  const BeamId tx_best = cb.best_beam_for(0.0);
  const BeamId rx_best = cb.best_beam_for(kPi);
  const double beamy_rss = ch.rx_power_dbm(tx, cb.beam(tx_best), rx,
                                           cb.beam(rx_best), Time::zero(), 10.0);
  const double expected_gain = cb.beam(tx_best).gain_dbi(0.0) +
                               cb.beam(rx_best).gain_dbi(kPi);
  EXPECT_NEAR(beamy_rss - omni_rss, expected_gain, 0.05);
}

TEST(Channel, MisalignedBeamLosesGain) {
  const Channel ch(clean_config(), {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, 1_s, 1);
  const Codebook cb = Codebook::from_beamwidth_deg(20.0);
  const Pose tx = pose_at(0.0, 0.0);
  const Pose rx = pose_at(10.0, 0.0);
  const BeamId rx_best = cb.best_beam_for(kPi);
  const BeamId rx_wrong = (rx_best + 5) % static_cast<BeamId>(cb.size());
  const BeamId tx_best = cb.best_beam_for(0.0);
  const double good = ch.rx_power_dbm(tx, cb.beam(tx_best), rx,
                                      cb.beam(rx_best), Time::zero(), 10.0);
  const double bad = ch.rx_power_dbm(tx, cb.beam(tx_best), rx,
                                     cb.beam(rx_wrong), Time::zero(), 10.0);
  EXPECT_GT(good - bad, 10.0);
}

TEST(Channel, DeviceRotationShiftsBestBeam) {
  // Rotating the receiver must rotate which codebook beam wins — the
  // physical core of the paper's rotation experiment.
  const Channel ch(clean_config(), {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, 1_s, 1);
  const Codebook cb = Codebook::from_beamwidth_deg(20.0);
  const Codebook omni = Codebook::omni();
  const Pose tx = pose_at(0.0, 0.0);

  // Receiver offset from the axis so the arrival azimuth is not on a beam
  // boundary (ties would make the winner arbitrary).
  const auto best_rx = [&](double yaw_rad) {
    PathSnapshot snapshot;
    ch.make_snapshot(tx, pose_at(10.0, 3.0, yaw_rad), Time::zero(), 10.0,
                     snapshot);
    return sweep_rx_beams(snapshot, omni.beam(0), cb);
  };
  const auto best0 = best_rx(0.0);
  const auto best_rot = best_rx(deg_to_rad(40.0));
  // +40 deg of device yaw moves the body-frame arrival azimuth DOWN by
  // 40 deg = two 20-deg beams.
  const auto n = static_cast<BeamId>(cb.size());
  EXPECT_EQ(best_rot.beam, (best0.beam + n - 2) % n);
}

TEST(Channel, BlockageOnlyHitsLosPath) {
  ChannelConfig config = clean_config();
  config.blockage.rate_per_s = 10.0;  // force events early
  config.blockage.mean_attenuation_db = 30.0;
  config.blockage.attenuation_sigma_db = 0.0;
  config.multipath.reflector_count = 1;
  config.multipath.reflection_loss_mean_db = 10.0;
  config.multipath.reflection_loss_sigma_db = 0.0;

  const Channel ch(config, {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, 10_s, 3);
  ASSERT_GT(ch.blockage().event_count(), 0U);
  const auto& e = ch.blockage().events().front();
  const Time blocked = e.onset + e.ramp + sim::Duration::nanoseconds(1);
  const Time clear =
      e.onset - sim::Duration::milliseconds(1);

  const Codebook omni = Codebook::omni();
  const double before = ch.rx_power_dbm(pose_at(0.0, 0.0), omni.beam(0),
                                        pose_at(10.0, 0.0), omni.beam(0),
                                        clear, 10.0);
  const double during = ch.rx_power_dbm(pose_at(0.0, 0.0), omni.beam(0),
                                        pose_at(10.0, 0.0), omni.beam(0),
                                        blocked, 10.0);
  // LOS lost ~30 dB but the reflected path (10 dB reflection loss +
  // longer path) survives, so the drop is far less than 30 dB.
  EXPECT_GT(before - during, 3.0);
  EXPECT_LT(before - during, 29.0);
}

TEST(Channel, MultipathRaisesTotalPower) {
  ChannelConfig with_paths = clean_config();
  with_paths.multipath.reflector_count = 3;
  const Channel a(clean_config(), {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, 1_s, 4);
  const Channel b(with_paths, {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, 1_s, 4);
  const Codebook omni = Codebook::omni();
  const double los_only = a.rx_power_dbm(pose_at(0.0, 0.0), omni.beam(0),
                                         pose_at(10.0, 0.0), omni.beam(0),
                                         Time::zero(), 10.0);
  const double with_bounces = b.rx_power_dbm(pose_at(0.0, 0.0), omni.beam(0),
                                             pose_at(10.0, 0.0), omni.beam(0),
                                             Time::zero(), 10.0);
  EXPECT_GT(with_bounces, los_only);
  EXPECT_LT(with_bounces, los_only + 3.0);  // bounces are >= 3 dB down each
}

TEST(Channel, BestPairBeatsAllOtherPairs) {
  ChannelConfig config = clean_config();
  config.multipath.reflector_count = 2;
  const Channel ch(config, {0.0, 0.0, 0.0}, {12.0, 7.0, 0.0}, 1_s, 5);
  const Codebook tx_cb = Codebook::from_beamwidth_deg(45.0);
  const Codebook rx_cb = Codebook::from_beamwidth_deg(20.0);
  const Pose tx = pose_at(0.0, 0.0);
  const Pose rx = pose_at(12.0, 7.0, 0.3);

  const auto best = ch.best_beam_pair(tx, tx_cb, rx, rx_cb, Time::zero(), 10.0);
  for (const Beam& tb : tx_cb.beams()) {
    for (const Beam& rb : rx_cb.beams()) {
      EXPECT_LE(ch.rx_power_dbm(tx, tb, rx, rb, Time::zero(), 10.0),
                best.rx_power_dbm + 1e-9);
    }
  }
}

TEST(Channel, UplinkDownlinkReciprocity) {
  // Same geometry, same beams: swapping which end transmits changes only
  // the TX power term.
  ChannelConfig config = clean_config();
  config.multipath.reflector_count = 2;
  const Channel ch(config, {0.0, 0.0, 0.0}, {10.0, 5.0, 0.0}, 1_s, 6);
  const Codebook cb = Codebook::from_beamwidth_deg(45.0);
  const Pose bs = pose_at(0.0, 0.0);
  const Pose ue = pose_at(10.0, 5.0, 1.0);
  const double dl = ch.rx_power_dbm(bs, cb.beam(1), ue, cb.beam(4),
                                    Time::zero(), 13.0);
  const double ul = ch.rx_power_dbm(bs, cb.beam(1), ue, cb.beam(4),
                                    Time::zero(), 15.0);
  EXPECT_NEAR(ul - dl, 2.0, 1e-9);
}

TEST(Channel, DeterministicAcrossInstances) {
  ChannelConfig config;  // all effects on
  const Channel a(config, {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, 5_s, 99);
  const Channel b(config, {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, 5_s, 99);
  const Codebook cb = Codebook::from_beamwidth_deg(30.0);
  for (double x = 5.0; x < 30.0; x += 2.3) {
    const Time t = Time::zero() + sim::Duration::seconds_of(x / 10.0);
    EXPECT_DOUBLE_EQ(
        a.rx_power_dbm(pose_at(0.0, 0.0), cb.beam(0), pose_at(x, 3.0),
                       cb.beam(6), t, 13.0),
        b.rx_power_dbm(pose_at(0.0, 0.0), cb.beam(0), pose_at(x, 3.0),
                       cb.beam(6), t, 13.0));
  }
}

TEST(Channel, CoherentModeMatchesIncoherentForLosOnly) {
  // With a single path there is nothing to interfere with: coherent and
  // incoherent combining must agree exactly.
  ChannelConfig coh = clean_config();
  coh.coherent_combining = true;
  const Channel a(clean_config(), {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, 1_s, 8);
  const Channel b(coh, {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, 1_s, 8);
  const Codebook omni = Codebook::omni();
  for (double d = 5.0; d < 40.0; d += 3.3) {
    EXPECT_NEAR(a.rx_power_dbm(pose_at(0.0, 0.0), omni.beam(0),
                               pose_at(d, 0.0), omni.beam(0), Time::zero(),
                               13.0),
                b.rx_power_dbm(pose_at(0.0, 0.0), omni.beam(0),
                               pose_at(d, 0.0), omni.beam(0), Time::zero(),
                               13.0),
                1e-9);
  }
}

TEST(Channel, CoherentModeProducesSmallScaleFading) {
  // With a reflector, moving the receiver by millimetres swings the
  // coherent sum through constructive/destructive interference, while the
  // incoherent sum barely moves — the definition of small-scale fading.
  // One reflector with a fixed loss: the two-ray geometry that produces
  // the classic fading pattern.
  ChannelConfig coh2 = clean_config();
  coh2.coherent_combining = true;
  coh2.multipath.reflector_count = 1;
  coh2.multipath.reflection_loss_mean_db = 6.0;
  coh2.multipath.reflection_loss_sigma_db = 0.0;
  ChannelConfig inc2 = coh2;
  inc2.coherent_combining = false;

  const Channel coherent(coh2, {0.0, 0.0, 0.0}, {20.0, 0.0, 0.0}, 1_s, 9);
  const Channel incoherent(inc2, {0.0, 0.0, 0.0}, {20.0, 0.0, 0.0}, 1_s, 9);
  const Codebook omni = Codebook::omni();

  RunningStats coh_stats;
  RunningStats inc_stats;
  for (double offset = 0.0; offset < 0.05; offset += 0.0005) {  // 5 cm walk
    coh_stats.add(coherent.rx_power_dbm(pose_at(0.0, 0.0), omni.beam(0),
                                        pose_at(20.0 + offset, 0.0),
                                        omni.beam(0), Time::zero(), 13.0));
    inc_stats.add(incoherent.rx_power_dbm(pose_at(0.0, 0.0), omni.beam(0),
                                          pose_at(20.0 + offset, 0.0),
                                          omni.beam(0), Time::zero(), 13.0));
  }
  // Coherent: several dB of swing over 5 cm at lambda = 5 mm.
  EXPECT_GT(coh_stats.max() - coh_stats.min(), 3.0);
  // Incoherent: essentially flat over 5 cm.
  EXPECT_LT(inc_stats.max() - inc_stats.min(), 0.2);
}

TEST(Channel, CoherentModeIsDeterministicFunctionOfGeometry) {
  ChannelConfig coh = clean_config();
  coh.coherent_combining = true;
  coh.multipath.reflector_count = 2;
  const Channel a(coh, {0.0, 0.0, 0.0}, {15.0, 5.0, 0.0}, 1_s, 11);
  const Channel b(coh, {0.0, 0.0, 0.0}, {15.0, 5.0, 0.0}, 1_s, 11);
  const Codebook cb = Codebook::from_beamwidth_deg(30.0);
  // Query in different orders: values must match exactly.
  const auto q = [&](const Channel& ch, double x) {
    return ch.rx_power_dbm(pose_at(0.0, 0.0), cb.beam(2), pose_at(x, 5.0),
                           cb.beam(8), Time::zero(), 13.0);
  };
  const double a1 = q(a, 15.0);
  const double a2 = q(a, 18.0);
  const double b2 = q(b, 18.0);
  const double b1 = q(b, 15.0);
  EXPECT_DOUBLE_EQ(a1, b1);
  EXPECT_DOUBLE_EQ(a2, b2);
}

TEST(Channel, PowerFallsWithDistance) {
  const Channel ch(clean_config(), {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, 1_s, 7);
  const Codebook omni = Codebook::omni();
  double last = 1e9;
  for (double d = 5.0; d <= 100.0; d *= 1.5) {
    const double rss = ch.rx_power_dbm(pose_at(0.0, 0.0), omni.beam(0),
                                       pose_at(d, 0.0), omni.beam(0),
                                       Time::zero(), 10.0);
    EXPECT_LT(rss, last);
    last = rss;
  }
}

}  // namespace
}  // namespace st::phy
