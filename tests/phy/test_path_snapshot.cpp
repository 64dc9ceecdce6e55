// Golden equivalence of the channel-sweep fast path (path snapshots +
// allocation-free kernels, path_snapshot.hpp) against the naive per-call
// formulation kept as Channel::rx_power_dbm_naive /
// best_beam_pair_naive. The fast path replaces the naive one everywhere
// in production, so these tests are the contract that the refactor
// changed nothing observable: power matches to <= 1e-9 dB and sweeps
// pick the identical winning beam ids across coherent/incoherent
// combining, all pattern families, rotated poses, and blocked instants.
#include "phy/path_snapshot.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/quaternion.hpp"
#include "phy/channel.hpp"
#include "phy/codebook.hpp"

namespace st::phy {
namespace {

using sim::literals::operator""_s;

constexpr double kTolDb = 1e-9;
constexpr double kTxPowerDbm = 13.0;

/// Blockage config busy enough that a 60 s horizon reliably contains a
/// blocked instant to test the LOS-attenuated branch.
BlockageConfig busy_blockage() {
  BlockageConfig config;
  config.rate_per_s = 2.0;
  config.mean_duration_s = 0.4;
  return config;
}

Channel make_channel(bool coherent, unsigned reflectors = 3,
                     std::uint64_t seed = 7) {
  ChannelConfig config;
  config.coherent_combining = coherent;
  config.multipath.reflector_count = reflectors;
  config.blockage = busy_blockage();
  return Channel(config, {0.0, 0.0, 0.0}, {30.0, 10.0, 0.0}, 60_s, seed);
}

/// A pose set exercising translation and body-frame rotation (the
/// snapshot stores body-frame azimuths, so yaw must flow through).
std::vector<Pose> rx_poses() {
  std::vector<Pose> poses;
  Pose p;
  p.position = {30.0, 10.0, 0.0};
  poses.push_back(p);
  p.position = {45.0, -12.0, 1.5};
  p.orientation = Quaternion::from_yaw(0.9);
  poses.push_back(p);
  p.position = {12.0, 33.0, 0.0};
  p.orientation = Quaternion::from_yaw(-2.4);
  poses.push_back(p);
  return poses;
}

/// Sample times spread over the horizon; with busy_blockage at least one
/// falls inside a blockage event (asserted below).
std::vector<sim::Time> sample_times(const Channel& channel) {
  std::vector<sim::Time> times;
  bool saw_blocked = false;
  for (int ms = 100; ms < 60'000; ms += 1'700) {
    const sim::Time t = sim::Time::from_ns(std::int64_t{ms} * 1'000'000);
    if (times.size() < 8) {
      times.push_back(t);
    }
    if (!saw_blocked && channel.blockage().attenuation_db(t) > 1.0) {
      times.push_back(t);
      saw_blocked = true;
    }
  }
  EXPECT_TRUE(saw_blocked) << "no blocked instant sampled — weaken config?";
  return times;
}

struct PatternCase {
  const char* name;
  Codebook tx;
  Codebook rx;
};

std::vector<PatternCase> pattern_cases() {
  std::vector<PatternCase> cases;
  cases.push_back({"omni", Codebook::omni(), Codebook::omni()});
  cases.push_back({"gaussian", Codebook::from_beamwidth_deg(45.0),
                   Codebook::from_beamwidth_deg(20.0)});
  cases.push_back({"ula", Codebook::ula_from_beamwidth_deg(45.0),
                   Codebook::ula_from_beamwidth_deg(20.0)});
  return cases;
}

class PathSnapshotEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(PathSnapshotEquivalence, RxPowerMatchesNaive) {
  const Channel channel = make_channel(GetParam());
  const Pose tx_pose;
  for (const PatternCase& pc : pattern_cases()) {
    for (const Pose& rx_pose : rx_poses()) {
      for (const sim::Time t : sample_times(channel)) {
        for (BeamId tb = 0; tb < pc.tx.size(); ++tb) {
          for (BeamId rb = 0; rb < pc.rx.size(); ++rb) {
            const double fast =
                channel.rx_power_dbm(tx_pose, pc.tx.beam(tb), rx_pose,
                                     pc.rx.beam(rb), t, kTxPowerDbm);
            const double naive =
                channel.rx_power_dbm_naive(tx_pose, pc.tx.beam(tb), rx_pose,
                                           pc.rx.beam(rb), t, kTxPowerDbm);
            ASSERT_NEAR(fast, naive, kTolDb)
                << pc.name << " tx_beam=" << tb << " rx_beam=" << rb
                << " t=" << t.ns() << "ns";
          }
        }
      }
    }
  }
}

TEST_P(PathSnapshotEquivalence, BestPairMatchesNaive) {
  const Channel channel = make_channel(GetParam());
  const Pose tx_pose;
  for (const PatternCase& pc : pattern_cases()) {
    for (const Pose& rx_pose : rx_poses()) {
      for (const sim::Time t : sample_times(channel)) {
        const Channel::BestPair fast = channel.best_beam_pair(
            tx_pose, pc.tx, rx_pose, pc.rx, t, kTxPowerDbm);
        const Channel::BestPair naive = channel.best_beam_pair_naive(
            tx_pose, pc.tx, rx_pose, pc.rx, t, kTxPowerDbm);
        ASSERT_EQ(fast.tx_beam, naive.tx_beam) << pc.name;
        ASSERT_EQ(fast.rx_beam, naive.rx_beam) << pc.name;
        ASSERT_NEAR(fast.rx_power_dbm, naive.rx_power_dbm, kTolDb) << pc.name;
      }
    }
  }
}

TEST_P(PathSnapshotEquivalence, SweepRxBeamsMatchesManualScan) {
  const Channel channel = make_channel(GetParam());
  const Codebook tx_cb = Codebook::from_beamwidth_deg(45.0);
  const Codebook rx_cb = Codebook::from_beamwidth_deg(20.0);
  const Pose tx_pose;
  for (const Pose& rx_pose : rx_poses()) {
    for (const sim::Time t : sample_times(channel)) {
      PathSnapshot snapshot;
      channel.make_snapshot(tx_pose, rx_pose, t, kTxPowerDbm, snapshot);
      for (BeamId tb = 0; tb < tx_cb.size(); ++tb) {
        const Channel::BestBeam fast =
            sweep_rx_beams(snapshot, tx_cb.beam(tb), rx_cb);
        // Manual first-strictly-greater scan over pairwise evaluations.
        BeamId want = 0;
        double want_dbm =
            snapshot_rx_power_dbm(snapshot, tx_cb.beam(tb), rx_cb.beam(0));
        for (BeamId rb = 1; rb < rx_cb.size(); ++rb) {
          const double dbm =
              snapshot_rx_power_dbm(snapshot, tx_cb.beam(tb), rx_cb.beam(rb));
          if (dbm > want_dbm) {
            want_dbm = dbm;
            want = rb;
          }
        }
        ASSERT_EQ(fast.beam, want);
        ASSERT_NEAR(fast.rx_power_dbm, want_dbm, kTolDb);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CombiningModes, PathSnapshotEquivalence,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Coherent" : "Incoherent";
                         });

TEST(PathSnapshot, LosOnlyChannelHasSinglePath) {
  const Channel channel = make_channel(false, /*reflectors=*/0);
  PathSnapshot snapshot;
  channel.make_snapshot(Pose{}, rx_poses()[0], sim::Time::from_ns(1'000'000),
                        kTxPowerDbm, snapshot);
  EXPECT_EQ(snapshot.size(), 1U);
  EXPECT_FALSE(snapshot.coherent);
}

TEST(PathSnapshot, StorageIsReusedAcrossRebuilds) {
  const Channel channel = make_channel(true);
  PathSnapshot snapshot;
  channel.make_snapshot(Pose{}, rx_poses()[0], sim::Time::from_ns(1'000'000),
                        kTxPowerDbm, snapshot);
  const std::size_t n_paths = snapshot.size();
  const double* base = snapshot.base_linear.data();
  const double* amps = snapshot.amp_cos.data();
  for (std::size_t i = 2; i < 40; ++i) {
    channel.make_snapshot(Pose{}, rx_poses()[i % 3],
                          sim::Time::from_ns(static_cast<std::int64_t>(i) *
                                             1'000'000),
                          kTxPowerDbm, snapshot);
    ASSERT_EQ(snapshot.size(), n_paths);
    ASSERT_EQ(snapshot.base_linear.data(), base) << "snapshot reallocated";
    ASSERT_EQ(snapshot.amp_cos.data(), amps) << "snapshot reallocated";
  }
}

TEST(PathSnapshot, BaseLinearIsConsistentWithBaseDb) {
  const Channel channel = make_channel(true);
  PathSnapshot snapshot;
  channel.make_snapshot(Pose{}, rx_poses()[1], sim::Time::from_ns(5'000'000),
                        kTxPowerDbm, snapshot);
  for (std::size_t p = 0; p < snapshot.size(); ++p) {
    EXPECT_NEAR(snapshot.base_linear[p], from_db(snapshot.base_db[p]),
                1e-12 * snapshot.base_linear[p]);
    // Coherent amplitude decomposition preserves the path power.
    EXPECT_NEAR(snapshot.amp_cos[p] * snapshot.amp_cos[p] +
                    snapshot.amp_sin[p] * snapshot.amp_sin[p],
                snapshot.base_linear[p], 1e-12 * snapshot.base_linear[p]);
  }
}

// ---- Sweep-kernel edge cases -------------------------------------------

TEST(SweepKernels, EqualPowerPairsKeepTheLowestBeamIds) {
  // Every beam of an all-omni codebook pair produces the identical power:
  // the sweep must resolve the tie to the lowest beam ids (first strictly
  // greater scan), matching what a naive id-ordered scan returns.
  const auto omni = std::make_shared<OmniPattern>();
  const Codebook tx_cb = Codebook::uniform(4, omni);
  const Codebook rx_cb = Codebook::uniform(5, omni);
  for (const bool coherent : {false, true}) {
    const Channel channel = make_channel(coherent);
    PathSnapshot snapshot;
    channel.make_snapshot(Pose{}, rx_poses()[0],
                          sim::Time::from_ns(5'000'000), kTxPowerDbm,
                          snapshot);
    const Channel::BestPair pair = sweep_beam_pairs(snapshot, tx_cb, rx_cb);
    EXPECT_EQ(pair.tx_beam, 0u);
    EXPECT_EQ(pair.rx_beam, 0u);
    for (BeamId tb = 0; tb < tx_cb.size(); ++tb) {
      const Channel::BestBeam best =
          sweep_rx_beams(snapshot, tx_cb.beam(tb), rx_cb);
      EXPECT_EQ(best.beam, 0u);
      EXPECT_DOUBLE_EQ(best.rx_power_dbm, pair.rx_power_dbm);
    }
  }
}

TEST(SweepKernels, EmptySnapshotSweepsDefinedly) {
  // A pathless snapshot (no LOS, no reflectors) must sweep without UB and
  // agree with the pairwise evaluator: beam 0 wins a no-signal tie.
  const Codebook tx_cb = Codebook::from_beamwidth_deg(45.0);
  const Codebook rx_cb = Codebook::from_beamwidth_deg(20.0);
  for (const bool coherent : {false, true}) {
    PathSnapshot snapshot;
    snapshot.coherent = coherent;
    snapshot.resize(0);
    const double floor_dbm =
        snapshot_rx_power_dbm(snapshot, tx_cb.beam(0), rx_cb.beam(0));
    const Channel::BestPair pair = sweep_beam_pairs(snapshot, tx_cb, rx_cb);
    EXPECT_EQ(pair.tx_beam, 0u);
    EXPECT_EQ(pair.rx_beam, 0u);
    EXPECT_EQ(pair.rx_power_dbm, floor_dbm);
    const Channel::BestBeam best =
        sweep_rx_beams(snapshot, tx_cb.beam(0), rx_cb);
    EXPECT_EQ(best.beam, 0u);
    EXPECT_EQ(best.rx_power_dbm, floor_dbm);
  }
}

TEST(SweepKernels, PathCountsOffTheSimdLaneWidthMatchNaive) {
  // 1, 5, 7, and 8 paths: below one AVX2 lane set, straddling it, and an
  // exact multiple — the vector body plus scalar tail must agree with the
  // naive per-pair evaluation for every residue mod 4.
  const Codebook tx_cb = Codebook::from_beamwidth_deg(45.0);
  const Codebook rx_cb = Codebook::from_beamwidth_deg(20.0);
  const Pose tx_pose;
  const sim::Time t = sim::Time::from_ns(7'000'000);
  for (const bool coherent : {false, true}) {
    for (const unsigned reflectors : {0u, 4u, 6u, 7u}) {
      const Channel channel = make_channel(coherent, reflectors);
      for (const Pose& rx_pose : rx_poses()) {
        PathSnapshot snapshot;
        channel.make_snapshot(tx_pose, rx_pose, t, kTxPowerDbm, snapshot);
        ASSERT_EQ(snapshot.size(), reflectors + 1u);
        const Channel::BestPair fast = sweep_beam_pairs(snapshot, tx_cb, rx_cb);
        const Channel::BestPair naive = channel.best_beam_pair_naive(
            tx_pose, tx_cb, rx_pose, rx_cb, t, kTxPowerDbm);
        ASSERT_EQ(fast.tx_beam, naive.tx_beam)
            << "reflectors=" << reflectors << " coherent=" << coherent;
        ASSERT_EQ(fast.rx_beam, naive.rx_beam);
        ASSERT_NEAR(fast.rx_power_dbm, naive.rx_power_dbm, kTolDb);
      }
    }
  }
}

// ---- Incremental rebuilds ----------------------------------------------

/// Every array of `got` must equal `want` bit-for-bit: the incremental
/// path may skip work, never change results.
void expect_snapshots_identical(const PathSnapshot& got,
                                const PathSnapshot& want, const char* where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  ASSERT_EQ(got.coherent, want.coherent) << where;
  for (std::size_t p = 0; p < want.size(); ++p) {
    ASSERT_EQ(got.base_db[p], want.base_db[p]) << where << " path " << p;
    ASSERT_EQ(got.base_linear[p], want.base_linear[p]) << where;
    ASSERT_EQ(got.amp_cos[p], want.amp_cos[p]) << where;
    ASSERT_EQ(got.amp_sin[p], want.amp_sin[p]) << where;
    ASSERT_EQ(got.tx_az[p], want.tx_az[p]) << where;
    ASSERT_EQ(got.rx_az[p], want.rx_az[p]) << where;
  }
}

TEST(IncrementalSnapshot, UpdateWalkIsBitIdenticalToFullBuilds) {
  // A mobility-like trajectory: small walk steps, rotation-only instants,
  // and time-only repeats. The reuse-threaded rebuild must produce the
  // exact full-build snapshot at every step while actually skipping work.
  for (const bool coherent : {false, true}) {
    const Channel channel = make_channel(coherent);
    const Pose tx_pose;
    PathSnapshot incremental;
    PathSnapshot full;
    SnapshotReuse reuse;
    SnapshotCacheStats stats;
    Pose rx_pose;
    rx_pose.position = {30.0, 10.0, 0.0};
    for (int step = 0; step < 60; ++step) {
      // ~1.4 m/s walk at 10 ms ticks, with every 7th step rotation-only
      // and every 11th a pure time advance (pose frozen).
      if (step % 11 != 0 && step % 7 != 0) {
        rx_pose.position.x += 0.014;
        rx_pose.position.y += 0.007;
      }
      if (step % 7 == 0) {
        rx_pose.orientation =
            Quaternion::from_yaw(0.05 * static_cast<double>(step));
      }
      const sim::Time t =
          sim::Time::from_ns(100'000'000 + std::int64_t{step} * 10'000'000);
      channel.update_snapshot(tx_pose, rx_pose, t, kTxPowerDbm, incremental,
                              &reuse, &stats);
      channel.make_snapshot(tx_pose, rx_pose, t, kTxPowerDbm, full);
      expect_snapshots_identical(incremental, full,
                                 coherent ? "coherent" : "incoherent");
    }
    // The trajectory actually exercised the reuse paths.
    EXPECT_EQ(stats.full_builds, 1u);
    EXPECT_EQ(stats.incremental_builds, 59u);
    EXPECT_GT(stats.geometry_reuses, 0u);
    EXPECT_GT(stats.shadow_reuses, 0u);
    EXPECT_GT(stats.blockage_reuses, 0u);
    EXPECT_GT(stats.azimuth_reuses, 0u);
  }
}

/// Bitwise equality of two component arrays (signed zeros count).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(IncrementalSnapshot, RxOnlyMoveKeepsReflectedTxAzimuths) {
  // An RX-only walk keeps every reflected path's departure direction, so
  // the refresh keeps those TX azimuths and re-projects only the LOS one.
  // Every component must still equal a cold build bit for bit, through a
  // TX rotation and a TX move midway (which invalidate the kept ones).
  for (const bool coherent : {false, true}) {
    const Channel channel = make_channel(coherent, 5);
    Pose tx_pose;
    tx_pose.orientation = Quaternion::from_yaw(0.3);
    PathSnapshot incremental;
    PathSnapshot cold;
    SnapshotReuse reuse;
    Pose rx_pose;
    rx_pose.position = {30.0, 10.0, 0.0};
    rx_pose.orientation = Quaternion::from_yaw(-1.2);
    for (int step = 0; step < 40; ++step) {
      rx_pose.position.x -= 0.021;
      rx_pose.position.y += 0.013;
      if (step == 17) {
        tx_pose.orientation = Quaternion::from_yaw(0.31);
      }
      if (step == 29) {
        tx_pose.position.z += 0.5;
      }
      const sim::Time t =
          sim::Time::from_ns(300'000'000 + std::int64_t{step} * 1'000'000);
      channel.update_snapshot(tx_pose, rx_pose, t, kTxPowerDbm, incremental,
                              &reuse, nullptr);
      channel.make_snapshot(tx_pose, rx_pose, t, kTxPowerDbm, cold);
      ASSERT_EQ(incremental.size(), 6u);
      ASSERT_EQ(incremental.coherent, cold.coherent);
      ASSERT_TRUE(same_bits(incremental.tx_az, cold.tx_az)) << "step " << step;
      ASSERT_TRUE(same_bits(incremental.rx_az, cold.rx_az)) << "step " << step;
      ASSERT_TRUE(same_bits(incremental.base_db, cold.base_db));
      ASSERT_TRUE(same_bits(incremental.base_linear, cold.base_linear));
      ASSERT_TRUE(same_bits(incremental.amp_cos, cold.amp_cos));
      ASSERT_TRUE(same_bits(incremental.amp_sin, cold.amp_sin));
    }
  }
}

TEST(IncrementalSnapshot, SweepsOverAnUpdatedSnapshotMatchNaive) {
  // End-to-end: reuse-threaded snapshots fed to the sweep kernels agree
  // with the naive evaluation over the same trajectory.
  const Channel channel = make_channel(true);
  const Codebook tx_cb = Codebook::from_beamwidth_deg(45.0);
  const Codebook rx_cb = Codebook::from_beamwidth_deg(20.0);
  const Pose tx_pose;
  PathSnapshot snapshot;
  SnapshotReuse reuse;
  Pose rx_pose;
  rx_pose.position = {30.0, 10.0, 0.0};
  for (int step = 0; step < 25; ++step) {
    rx_pose.position.x += 0.02;
    const sim::Time t =
        sim::Time::from_ns(200'000'000 + std::int64_t{step} * 10'000'000);
    channel.update_snapshot(tx_pose, rx_pose, t, kTxPowerDbm, snapshot,
                            &reuse, nullptr);
    const Channel::BestPair fast = sweep_beam_pairs(snapshot, tx_cb, rx_cb);
    const Channel::BestPair naive = channel.best_beam_pair_naive(
        tx_pose, tx_cb, rx_pose, rx_cb, t, kTxPowerDbm);
    ASSERT_EQ(fast.tx_beam, naive.tx_beam) << "step " << step;
    ASSERT_EQ(fast.rx_beam, naive.rx_beam) << "step " << step;
    ASSERT_NEAR(fast.rx_power_dbm, naive.rx_power_dbm, kTolDb);
  }
}

}  // namespace
}  // namespace st::phy
