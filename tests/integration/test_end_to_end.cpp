// End-to-end behavioural checks: the claims the paper's evaluation makes,
// asserted as tests over the full stack (deployment + channel + mobility +
// protocols). These use the default (impaired) channel, so expectations
// are phrased as robust inequalities over a handful of seeds.
#include <gtest/gtest.h>

#include <set>

#include "core/scenario.hpp"
#include "core/scenario_spec.hpp"
#include "net/handover.hpp"

namespace st::core {
namespace {

using namespace st::sim::literals;

ScenarioSpec base_spec(std::uint64_t seed) {
  // The paper_walk frame already runs for the evaluation's 25 s.
  return SpecBuilder(preset::paper_walk()).seed(seed).build();
}

TEST(EndToEnd, WalkScenarioCompletesHandovers) {
  int runs_with_success = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const ScenarioResult r = run_scenario(base_spec(seed));
    if (r.successful_handovers() > 0) {
      ++runs_with_success;
    }
  }
  EXPECT_EQ(runs_with_success, 3);
}

TEST(EndToEnd, SilentTrackerMostlySoft) {
  // Across seeds, the overwhelming majority of completed handovers are
  // soft — the protocol's headline claim.
  std::size_t soft = 0;
  std::size_t hard = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const ScenarioResult r = run_scenario(base_spec(seed));
    soft += r.soft_handovers();
    hard += r.hard_handovers();
  }
  EXPECT_GT(soft, hard);
}

TEST(EndToEnd, SoftBeatsReactiveOnInterruption) {
  // E4's shape: mean soft interruption well below mean reactive (hard)
  // interruption, because hard pays the directional search.
  UeProfile reactive_ue = preset::walking_ue();
  reactive_ue.protocol = ProtocolKind::kReactive;
  double soft_sum = 0.0;
  std::size_t soft_n = 0;
  double hard_sum = 0.0;
  std::size_t hard_n = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const ScenarioResult tracker = run_scenario(base_spec(seed));
    for (const auto& h : tracker.handovers) {
      if (h.success && h.type == net::HandoverType::kSoft) {
        soft_sum += h.interruption().ms();
        ++soft_n;
      }
    }
    const ScenarioResult reactive = run_scenario(
        SpecBuilder().seed(seed).duration(25'000_ms).ue(reactive_ue).build());
    for (const auto& h : reactive.handovers) {
      if (h.success) {
        hard_sum += h.interruption().ms();
        ++hard_n;
      }
    }
  }
  ASSERT_GT(soft_n, 0U);
  ASSERT_GT(hard_n, 0U);
  EXPECT_LT(soft_sum / static_cast<double>(soft_n),
            hard_sum / static_cast<double>(hard_n));
}

TEST(EndToEnd, RotationScenarioKeepsTracking) {
  const ScenarioSpec spec =
      SpecBuilder(preset::paper_rotation()).duration(20'000_ms).seed(5).build();
  const ScenarioResult r = run_scenario(spec);
  // The device spins at 120 deg/s for 20 s; tracking must have produced
  // beam switches and the tracked beam must be aligned a solid majority
  // of the time up to the handover (Fig. 2c: rotation handled
  // successfully). Post-handover the tracker re-tracks whatever remains,
  // which the paper's criterion does not cover.
  EXPECT_GT(r.counters[obs::ProtocolCounter::kNeighbourRxSwitches], 5U);
  EXPECT_GT(r.alignment_until_first_handover(), 0.5);
}

TEST(EndToEnd, VehicularScenarioHandsOverAlongTheRoad) {
  const ScenarioSpec spec = SpecBuilder(preset::paper_vehicular())
                                .duration(20'000_ms)
                                .seed(6)
                                .build();
  const ScenarioResult r = run_scenario(spec);
  EXPECT_GE(r.successful_handovers(), 1U);
}

TEST(EndToEnd, DirectionalOutperformsOmniTracking) {
  // Fig. 2a's root cause at system level: with the same seeds, the 20 deg
  // codebook sees usable neighbour SSBs while omni largely cannot.
  UeProfile omni_ue = preset::walking_ue();
  omni_ue.ue_beamwidth_deg = 0.0;
  const ScenarioResult rd = run_scenario(base_spec(7));
  const ScenarioResult ro = run_scenario(
      SpecBuilder().seed(7).duration(25'000_ms).ue(omni_ue).build());
  EXPECT_GT(rd.counters[obs::ProtocolCounter::kInitialSearchHits],
            ro.counters[obs::ProtocolCounter::kInitialSearchHits]);
}

TEST(EndToEnd, GridWalkHandsOverInTheGrid) {
  const ScenarioSpec spec =
      SpecBuilder(preset::grid_walk()).seed(3).build();
  const ScenarioResult r = run_scenario(spec);
  EXPECT_GE(r.successful_handovers(), 1U);
}

TEST(EndToEnd, CorridorDriveHandsOverAlongTheStreet) {
  const ScenarioSpec spec =
      SpecBuilder(preset::corridor_drive()).seed(1).build();
  const ScenarioResult r = run_scenario(spec);
  // The drive passes many cells: several successful handovers, to more
  // than one distinct target.
  EXPECT_GE(r.successful_handovers(), 2U);
  std::set<net::CellId> targets;
  for (const auto& h : r.handovers) {
    if (h.success) {
      targets.insert(h.to);
    }
  }
  EXPECT_GE(targets.size(), 2U);
}

TEST(EndToEnd, PolicyReducesPingPongOnEdgeShuttle) {
  // The tentpole's headline claim: on the adversarial cell-edge shuttle,
  // hysteresis + the penalty timer measurably cut ping-pong handovers
  // versus the RSS-only baseline. Aggregated over seeds because single
  // runs are noisy; each run is deterministic, so this pin is stable.
  std::size_t pp_policy = 0;
  std::size_t pp_rss_only = 0;
  std::size_t ho_policy = 0;
  std::size_t ho_rss_only = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    for (const bool policy_on : {false, true}) {
      ScenarioSpec spec = preset::edge_ping_pong();
      spec.seed = seed;
      for (auto& ue : spec.ues) {
        ue.handover_policy.enabled = policy_on;
      }
      spec = SpecBuilder(std::move(spec)).build();
      const ScenarioResult r = run_scenario(spec);
      const std::size_t pp = net::count_ping_pongs(
          r.handovers, spec.ues.front().handover_policy.ping_pong_window);
      (policy_on ? pp_policy : pp_rss_only) += pp;
      (policy_on ? ho_policy : ho_rss_only) += r.successful_handovers();
    }
  }
  // Both arms shuttle across the edge and hand over repeatedly...
  ASSERT_GT(ho_rss_only, 0U);
  ASSERT_GT(ho_policy, 0U);
  ASSERT_GT(pp_rss_only, 0U);
  // ...but the decision layer returns the mobile to the just-left cell
  // measurably less often.
  EXPECT_LT(pp_policy, pp_rss_only);
}

TEST(EndToEnd, LoadPenaltyDivertsSelectionInSystem) {
  // A dense row with a tiny corridor offset puts cells 1 and 2 in the
  // same receive beam from the mobile, so search dwells hear both; with
  // cell 1 fully loaded and a large load penalty, the ranking rule must
  // override the raw strongest-RSS pick far more often than the
  // tie-ordering baseline does. (The rule's direction — lightly loaded
  // second-best wins — is pinned by the HandoverDecision unit tests.)
  std::uint64_t diverted_loaded = 0;
  std::uint64_t diverted_idle = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 4ULL, 6ULL}) {
    for (const double cell1_load : {0.0, 1.0}) {
      ScenarioSpec spec = preset::paper_rotation();
      spec.seed = seed;
      spec.n_cells = 3;
      spec.deployment.inter_site_m = 20.0;
      spec.deployment.corridor_offset_m = 2.0;
      spec.cell_load = {0.0, cell1_load, 0.0};
      for (auto& ue : spec.ues) {
        ue.handover_policy.enabled = true;
        ue.handover_policy.load_penalty_db = 40.0;
      }
      spec = SpecBuilder(std::move(spec)).build();
      const ScenarioResult r = run_scenario(spec);
      (cell1_load > 0.0 ? diverted_loaded : diverted_idle) +=
          r.counters[obs::ProtocolCounter::kPolicySelectionDiverted];
    }
  }
  EXPECT_GT(diverted_loaded, diverted_idle);
}

TEST(EndToEnd, ServingSnrSeriesIsPlausible) {
  const ScenarioResult r = run_scenario(base_spec(8));
  ASSERT_FALSE(r.serving_snr_db.empty());
  for (const auto& p : r.serving_snr_db.points()) {
    EXPECT_GT(p.value, -60.0);
    EXPECT_LT(p.value, 60.0);
  }
}

}  // namespace
}  // namespace st::core
