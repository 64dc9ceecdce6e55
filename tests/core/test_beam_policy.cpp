// The pluggable beam-management policies (DESIGN.md §16): the Strategy
// extraction must leave the paper's protocol bit-identical when no
// policy override is set, each competitor must plan the probe sets its
// model prescribes, and every policy must drive full scenario runs to
// completion.
#include "core/beam_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/scenario.hpp"
#include "core/scenario_spec.hpp"
#include "support/run_fingerprint.hpp"

namespace st::core {
namespace {

using namespace st::sim::literals;

using test::fingerprint;

BeamProbeContext context(const phy::Codebook& codebook, phy::BeamId current,
                         int trend, bool lost = false) {
  return BeamProbeContext{.codebook = codebook,
                          .current = current,
                          .filtered_rss_dbm = -80.0,
                          .rx_trend = trend,
                          .lost = lost};
}

bool contains(const std::vector<phy::BeamId>& beams, phy::BeamId beam) {
  return std::find(beams.begin(), beams.end(), beam) != beams.end();
}

// ---- silent_tracker (the paper's rule) ------------------------------------

TEST(SilentTrackerPolicy, ProbesTrendNeighbourPlusCurrent) {
  const phy::Codebook codebook = make_ue_codebook(20.0);
  const auto policy = make_beam_policy(BeamPolicyConfig{});
  const phy::BeamId current = 5;
  std::vector<phy::BeamId> probes;

  policy->plan_probe(context(codebook, current, -1), probes);
  EXPECT_EQ(probes, (std::vector<phy::BeamId>{
                        codebook.left_neighbour(current), current}));

  probes.clear();
  policy->plan_probe(context(codebook, current, +1), probes);
  EXPECT_EQ(probes, (std::vector<phy::BeamId>{
                        codebook.right_neighbour(current), current}));

  probes.clear();
  policy->plan_probe(context(codebook, current, 0), probes);
  EXPECT_EQ(probes,
            (std::vector<phy::BeamId>{codebook.left_neighbour(current),
                                      codebook.right_neighbour(current),
                                      current}));
}

TEST(SilentTrackerPolicy, FullSweepVariantProbesWholeCodebook) {
  const phy::Codebook codebook = make_ue_codebook(20.0);
  const auto policy = make_beam_policy({.kind = BeamPolicyKind::kFullSweep});
  const phy::BeamId current = 3;
  std::vector<phy::BeamId> probes;
  policy->plan_probe(context(codebook, current, 0), probes);
  EXPECT_EQ(probes.size(), codebook.size() - 1);
  EXPECT_FALSE(contains(probes, current));
}

TEST(SilentTrackerPolicy, PlansNoRefineRound) {
  const phy::Codebook codebook = make_ue_codebook(20.0);
  const auto policy = make_beam_policy(BeamPolicyConfig{});
  std::vector<phy::BeamId> probes;
  policy->plan_probe(context(codebook, 5, 0), probes);
  probes.clear();
  policy->plan_refine(context(codebook, 5, 0), /*winner=*/4, probes);
  EXPECT_TRUE(probes.empty());
}

// ---- hierarchical (coarse-to-fine) ----------------------------------------

TEST(HierarchicalPolicy, CoarseRoundStridesTheCodebook) {
  const phy::Codebook codebook = make_ue_codebook(20.0);
  BeamPolicyConfig config;
  config.kind = BeamPolicyKind::kHierarchical;
  config.coarse_stride = 4;
  const auto policy = make_beam_policy(config);

  std::vector<phy::BeamId> probes;
  policy->plan_probe(context(codebook, 1, 0), probes);
  // Every 4th beam, plus the current beam if the stride missed it.
  for (phy::BeamId beam = 0; beam < codebook.size(); beam += 4) {
    EXPECT_TRUE(contains(probes, beam)) << "missing coarse beam " << beam;
  }
  EXPECT_TRUE(contains(probes, 1));
}

TEST(HierarchicalPolicy, RefineRoundSurroundsTheCoarseWinner) {
  const phy::Codebook codebook = make_ue_codebook(20.0);
  BeamPolicyConfig config;
  config.kind = BeamPolicyKind::kHierarchical;
  config.coarse_stride = 3;
  const auto policy = make_beam_policy(config);

  std::vector<phy::BeamId> probes;
  policy->plan_probe(context(codebook, 0, 0), probes);  // arms the refine
  probes.clear();
  const phy::BeamId winner = 6;
  policy->plan_refine(context(codebook, 0, 0), winner, probes);
  ASSERT_FALSE(probes.empty());
  // (stride - 1) cyclic steps to each side of the winner, winner last so
  // ties resolve toward keeping it.
  EXPECT_TRUE(contains(probes, codebook.left_neighbour(winner)));
  EXPECT_TRUE(contains(probes, codebook.right_neighbour(winner)));
  EXPECT_EQ(probes.back(), winner);

  // The refine round disarms itself: no second refine until the next
  // coarse probe.
  probes.clear();
  policy->plan_refine(context(codebook, 0, 0), winner, probes);
  EXPECT_TRUE(probes.empty());
}

TEST(HierarchicalPolicy, AutoStrideCoversCodebookInTwoRounds) {
  const phy::Codebook codebook = make_ue_codebook(20.0);
  BeamPolicyConfig config;
  config.kind = BeamPolicyKind::kHierarchical;  // coarse_stride 0 = auto
  const auto policy = make_beam_policy(config);
  std::vector<phy::BeamId> coarse;
  policy->plan_probe(context(codebook, 0, 0), coarse);
  std::vector<phy::BeamId> refine;
  policy->plan_refine(context(codebook, 0, 0), coarse.front(), refine);
  // coarse + refine together stay well under the full-sweep cost.
  EXPECT_LT(coarse.size() + refine.size(), codebook.size());
  EXPECT_GE(coarse.size(), 2U);
  EXPECT_GE(refine.size(), 2U);
}

// ---- blind (switch without confirming) ------------------------------------

TEST(BlindPolicy, NeverReprobesTheCurrentBeam) {
  const phy::Codebook codebook = make_ue_codebook(20.0);
  BeamPolicyConfig config;
  config.kind = BeamPolicyKind::kBlind;
  const auto policy = make_beam_policy(config);

  const phy::BeamId current = 7;
  std::vector<phy::BeamId> probes;
  policy->plan_probe(context(codebook, current, -1), probes);
  EXPECT_EQ(probes,
            (std::vector<phy::BeamId>{codebook.left_neighbour(current)}));

  probes.clear();
  policy->plan_probe(context(codebook, current, 0), probes);
  EXPECT_EQ(probes,
            (std::vector<phy::BeamId>{codebook.left_neighbour(current),
                                      codebook.right_neighbour(current)}));
  EXPECT_FALSE(contains(probes, current));
}

// ---- naming ---------------------------------------------------------------

TEST(BeamPolicyKindNames, RoundTripThroughToString) {
  EXPECT_EQ(to_string(BeamPolicyKind::kSilentTracker), "silent_tracker");
  EXPECT_EQ(to_string(BeamPolicyKind::kFullSweep),
            "silent_tracker_full_sweep");
  EXPECT_EQ(to_string(BeamPolicyKind::kHierarchical), "hierarchical");
  EXPECT_EQ(to_string(BeamPolicyKind::kBlind), "blind");
}

// ---- scenario integration -------------------------------------------------

TEST(BeamPolicyScenario, ExplicitSilentTrackerMatchesDefaultBitForBit) {
  // UeProfile.beam_policy = silent_tracker is the no-override spelling:
  // the run must be fingerprint-identical to an unset policy, rate layer
  // and all.
  ScenarioSpec base = preset::paper_walk();
  base.duration = 6'000_ms;
  base.collect_trace = true;

  ScenarioSpec with_policy = base;
  for (UeProfile& ue : with_policy.ues) {
    ue.beam_policy.kind = BeamPolicyKind::kSilentTracker;
  }

  const ScenarioResult unset = run_scenario(base);
  const ScenarioResult explicit_default = run_scenario(with_policy);
  EXPECT_EQ(fingerprint(unset), fingerprint(explicit_default));
}

class PolicyRuns : public ::testing::TestWithParam<BeamPolicyKind> {};

TEST_P(PolicyRuns, EveryPolicyDrivesTheScenarioToCompletion) {
  // The vehicular preset crosses the cell boundary within its default
  // duration, so every policy must carry a handover to completion.
  ScenarioSpec spec = preset::paper_vehicular();
  for (UeProfile& ue : spec.ues) {
    ue.beam_policy.kind = GetParam();
  }
  const ScenarioResult result = run_scenario(spec);
  EXPECT_GT(result.serving_snr_db.size(), 0U);
  // The run must still produce (and complete) handovers — the policies
  // change probing, not the handover machinery.
  EXPECT_FALSE(result.handovers.empty());
  const obs::RunReport report = build_run_report(spec, result);
  EXPECT_EQ(report.beam_policy,
            std::string(to_string(GetParam())));
  EXPECT_TRUE(report.rate_enabled);
  EXPECT_GT(report.rate.samples, 0U);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyRuns,
                         ::testing::Values(BeamPolicyKind::kSilentTracker,
                                           BeamPolicyKind::kFullSweep,
                                           BeamPolicyKind::kHierarchical,
                                           BeamPolicyKind::kBlind),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(BeamPolicyScenario, HierarchicalFillsRefineRounds) {
  // The refine round is observable through its counter: hierarchical
  // schedules one after every completed coarse probe.
  ScenarioSpec spec = preset::paper_rotation();
  spec.duration = 10'000_ms;
  for (UeProfile& ue : spec.ues) {
    ue.beam_policy.kind = BeamPolicyKind::kHierarchical;
  }
  const ScenarioResult result = run_scenario(spec);
  EXPECT_GT(result.counters[obs::ProtocolCounter::kProbeRefineRounds], 0U);
}

}  // namespace
}  // namespace st::core
