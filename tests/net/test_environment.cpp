#include "net/environment.hpp"

#include <gtest/gtest.h>

#include "net/test_helpers.hpp"
#include "phy/pathloss.hpp"

namespace st::net {
namespace {

using namespace st::sim::literals;
using sim::Time;

TEST(Environment, ConstructionValidation) {
  auto ue = test::standing_at({10.0, 10.0, 0.0});
  EXPECT_THROW(RadioEnvironment(test::clean_environment(), {}, ue,
                                phy::Codebook::omni()),
               std::invalid_argument);
  Deployment d = test::two_cells();
  EXPECT_THROW(RadioEnvironment(test::clean_environment(),
                                std::move(d.base_stations), nullptr,
                                phy::Codebook::omni()),
               std::invalid_argument);
}

TEST(Environment, CellAccessors) {
  auto env = test::make_two_cell_env(test::standing_at({30.0, 10.0, 0.0}));
  EXPECT_EQ(env.cell_count(), 2U);
  EXPECT_EQ(env.bs(0).id(), 0U);
  EXPECT_EQ(env.bs(1).id(), 1U);
  EXPECT_THROW((void)env.bs(2), std::out_of_range);
  EXPECT_THROW((void)env.bs_mutable(5), std::out_of_range);
  EXPECT_THROW((void)env.channel(9), std::out_of_range);
}

TEST(Environment, ObservationCarriesIdentity) {
  auto env = test::make_two_cell_env(test::standing_at({10.0, 10.0, 0.0}));
  const SsbObservation obs = env.observe_ssb(0, 2, 5, Time::zero() + 3_ms);
  EXPECT_EQ(obs.cell, 0U);
  EXPECT_EQ(obs.tx_beam, 2U);
  EXPECT_EQ(obs.rx_beam, 5U);
  EXPECT_EQ(obs.t, Time::zero() + 3_ms);
}

TEST(Environment, StrongLinkAlwaysDetected) {
  // UE right under cell 0 with the best beams: enormous SNR.
  auto ue = test::standing_at({0.0, 10.0, 0.0});
  auto env = test::make_two_cell_env(ue);
  const auto best = env.ground_truth_best_pair(0, Time::zero());
  for (int i = 0; i < 50; ++i) {
    const SsbObservation obs =
        env.observe_ssb(0, best.tx_beam, best.rx_beam, Time::zero());
    EXPECT_TRUE(obs.detected);
    EXPECT_NEAR(obs.rss_dbm, best.rx_power_dbm, 1e-9);  // sigma_db = 0
  }
}

TEST(Environment, HopelessLinkNeverDetected) {
  // Omni UE fifty+ metres from cell 1 with a backwards-pointing BS beam.
  auto ue = test::standing_at({0.0, 10.0, 0.0});
  auto env = test::make_two_cell_env(ue, /*ue_beamwidth_deg=*/0.0);
  const auto worst = [&] {
    phy::BeamId beam = 0;
    double lowest = 1e9;
    for (const auto& b : env.bs(1).codebook().beams()) {
      const double snr = env.true_dl_snr_db(1, b.id(), 0, Time::zero());
      if (snr < lowest) {
        lowest = snr;
        beam = b.id();
      }
    }
    return beam;
  }();
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(env.observe_ssb(1, worst, 0, Time::zero()).detected);
  }
}

TEST(Environment, GroundTruthBestPairIsArgmax) {
  auto ue = test::standing_at({20.0, 10.0, 0.0});
  auto env = test::make_two_cell_env(ue);
  const auto best = env.ground_truth_best_pair(0, Time::zero());
  for (const auto& tb : env.bs(0).codebook().beams()) {
    for (const auto& rb : env.ue_codebook().beams()) {
      const double snr = env.true_dl_snr_db(0, tb.id(), rb.id(), Time::zero());
      EXPECT_LE(snr + env.link_budget().noise_floor_dbm(),
                best.rx_power_dbm + 1e-9);
    }
  }
}

TEST(Environment, GroundTruthBestRxConsistent) {
  auto ue = test::standing_at({25.0, 10.0, 0.0});
  auto env = test::make_two_cell_env(ue);
  const auto pair = env.ground_truth_best_pair(0, Time::zero());
  const auto rx = env.ground_truth_best_rx(0, pair.tx_beam, Time::zero());
  EXPECT_EQ(rx.beam, pair.rx_beam);
  EXPECT_NEAR(rx.rx_power_dbm, pair.rx_power_dbm, 1e-9);
}

TEST(Environment, UplinkWeakerThanDownlink) {
  // Same geometry/beams, lower UE power: uplink success rate can only be
  // lower or equal. Test at a level where downlink always succeeds.
  auto ue = test::standing_at({10.0, 10.0, 0.0});
  auto env = test::make_two_cell_env(ue);
  const auto best = env.ground_truth_best_pair(0, Time::zero());
  int up = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        env.downlink_success(0, best.tx_beam, best.rx_beam, Time::zero()));
    up += env.uplink_success(0, best.rx_beam, best.tx_beam, Time::zero()) ? 1
                                                                          : 0;
  }
  EXPECT_GT(up, 90);  // still fine here, just not guaranteed stronger
}

TEST(Environment, PowerRampingImprovesUplink) {
  // Position the UE where the bare uplink is hopeless and 30 dB of ramp
  // saves it (steep detector makes this nearly a step function).
  auto ue = test::standing_at({45.0, 10.0, 0.0});
  auto env = test::make_two_cell_env(ue, 0.0);  // omni UE
  const auto best = env.ground_truth_best_pair(0, Time::zero());
  int bare = 0;
  int ramped = 0;
  for (int i = 0; i < 60; ++i) {
    bare += env.uplink_success(0, best.rx_beam, best.tx_beam, Time::zero())
                ? 1
                : 0;
    ramped += env.uplink_success(0, best.rx_beam, best.tx_beam, Time::zero(),
                                 30.0)
                  ? 1
                  : 0;
  }
  EXPECT_LT(bare, 10);
  EXPECT_GT(ramped, 50);
}

TEST(Environment, ClosenessOrdersRss) {
  auto ue = test::standing_at({10.0, 10.0, 0.0});  // near cell 0
  auto env = test::make_two_cell_env(ue);
  const auto near = env.ground_truth_best_pair(0, Time::zero());
  const auto far = env.ground_truth_best_pair(1, Time::zero());
  EXPECT_GT(near.rx_power_dbm, far.rx_power_dbm + 6.0);
}

TEST(Environment, SnapshotCacheCountsHitRefreshAndColdMiss) {
  auto env = test::make_two_cell_env(test::standing_at({20.0, 10.0, 0.0}));
  EXPECT_EQ(env.snapshot_stats().hits, 0u);
  EXPECT_EQ(env.snapshot_stats().cold_misses, 0u);
  EXPECT_EQ(env.snapshot_stats().pair_sweeps, 0u);
  EXPECT_DOUBLE_EQ(env.snapshot_stats().hit_rate(), 0.0);

  // First query at t0 builds cell 0's snapshot: a cold miss, no eviction.
  (void)env.ground_truth_best_pair(0, Time::zero());
  EXPECT_EQ(env.snapshot_stats().cold_misses, 1u);
  EXPECT_EQ(env.snapshot_stats().hits, 0u);
  EXPECT_EQ(env.snapshot_stats().invalidations, 0u);
  EXPECT_EQ(env.snapshot_stats().pair_sweeps, 1u);
  EXPECT_EQ(env.snapshot_stats().full_builds, 1u);

  // Same cell, same instant: served from the cached epoch.
  (void)env.ground_truth_best_pair(0, Time::zero());
  EXPECT_EQ(env.snapshot_stats().hits, 1u);
  EXPECT_EQ(env.snapshot_stats().cold_misses, 1u);
  EXPECT_EQ(env.snapshot_stats().pair_sweeps, 2u);

  // A different cell cold-misses without evicting cell 0's entry.
  (void)env.ground_truth_best_pair(1, Time::zero());
  EXPECT_EQ(env.snapshot_stats().cold_misses, 2u);
  EXPECT_EQ(env.snapshot_stats().invalidations, 0u);
  (void)env.ground_truth_best_pair(0, Time::zero());
  EXPECT_EQ(env.snapshot_stats().hits, 2u);

  // A new instant rebuilds in place, warm: a refresh (same UE keeps its
  // reuse state), not an invalidation — that word is reserved for
  // cross-UE evictions.
  (void)env.ground_truth_best_pair(0, Time::zero() + 1_ms);
  EXPECT_EQ(env.snapshot_stats().refreshes, 1u);
  EXPECT_EQ(env.snapshot_stats().cold_misses, 2u);
  EXPECT_EQ(env.snapshot_stats().invalidations, 0u);
  EXPECT_EQ(env.snapshot_stats().incremental_builds, 1u);

  // Hits and refreshes both reuse state: (2 + 1) of 5 queries.
  EXPECT_DOUBLE_EQ(env.snapshot_stats().hit_rate(), 3.0 / 5.0);
}

TEST(Environment, SweepKernelCountersSplitPairAndRxSweeps) {
  auto env = test::make_two_cell_env(test::standing_at({20.0, 10.0, 0.0}));
  (void)env.ground_truth_best_pair(0, Time::zero());
  (void)env.ground_truth_best_rx(0, 0, Time::zero());
  (void)env.ground_truth_best_rx(0, 1, Time::zero());
  EXPECT_EQ(env.snapshot_stats().pair_sweeps, 1u);
  EXPECT_EQ(env.snapshot_stats().rx_sweeps, 2u);
  // Sweeps at one instant share a single snapshot build.
  EXPECT_EQ(env.snapshot_stats().cold_misses, 1u);
  EXPECT_EQ(env.snapshot_stats().hits, 2u);
}

TEST(Environment, DetectionDrawsVaryNearThreshold) {
  // With a normal slope, a near-threshold link detects sometimes — the
  // probabilistic middle ground matters for search latency distributions.
  net::EnvironmentConfig config = test::clean_environment();
  config.link.detection_slope_per_db = 1.5;
  Deployment d = test::two_cells();
  auto ue = test::standing_at({38.0, 10.0, 0.0});
  RadioEnvironment env(config, std::move(d.base_stations), ue,
                       phy::Codebook::omni());
  // Pick the beam whose SNR is closest to the detection threshold.
  phy::BeamId beam = 0;
  double closest = 1e9;
  for (const auto& b : env.bs(0).codebook().beams()) {
    const double gap = std::fabs(env.true_dl_snr_db(0, b.id(), 0, Time::zero()) -
                                 config.link.detection_threshold_snr_db);
    if (gap < closest) {
      closest = gap;
      beam = b.id();
    }
  }
  if (closest < 2.0) {
    int detections = 0;
    for (int i = 0; i < 400; ++i) {
      detections += env.observe_ssb(0, beam, 0, Time::zero()).detected ? 1 : 0;
    }
    EXPECT_GT(detections, 20);
    EXPECT_LT(detections, 380);
  }
}

}  // namespace
}  // namespace st::net
