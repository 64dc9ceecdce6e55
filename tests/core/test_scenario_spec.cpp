// The experiment API: UeProfile + ScenarioSpec + SpecBuilder + presets +
// fleet_ue_seed. The contracts pinned here are the ones the fleet engine
// rides on: a paper preset's single-UE run is bit-identical to the same
// setup spelled field by field from a default ScenarioSpec, UE 0 inherits
// the fleet seed, and a UE's realisation is the same alone or inside a
// fleet.
#include "core/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "core/scenario.hpp"
#include "support/run_fingerprint.hpp"

namespace st::core {
namespace {

using namespace st::sim::literals;

using test::fingerprint;

// ---- fleet_ue_seed --------------------------------------------------------

TEST(FleetUeSeed, UeZeroInheritsTheFleetSeed) {
  // Single-UE seeds reproduce the published tables, so UE 0 must see
  // exactly the fleet seed, not a derived one.
  EXPECT_EQ(fleet_ue_seed(1, 0), 1u);
  EXPECT_EQ(fleet_ue_seed(1000, 0), 1000u);
  EXPECT_EQ(fleet_ue_seed(0xDEADBEEF, 0), 0xDEADBEEFu);
}

TEST(FleetUeSeed, LaterUesGetDecorrelatedDistinctRoots) {
  std::set<std::uint64_t> roots;
  for (std::size_t ue = 0; ue < 64; ++ue) {
    roots.insert(fleet_ue_seed(1000, ue));
  }
  EXPECT_EQ(roots.size(), 64u);
  // Adjacent fleet seeds (the bench ladder uses arithmetic seed spacing)
  // must not alias each other's per-UE roots.
  EXPECT_NE(fleet_ue_seed(1000, 1), fleet_ue_seed(1001, 1));
  EXPECT_NE(fleet_ue_seed(1000, 2), fleet_ue_seed(1001, 1));
}

TEST(FleetUeSeed, DerivationIsAPureFunction) {
  for (std::size_t ue = 0; ue < 8; ++ue) {
    EXPECT_EQ(fleet_ue_seed(77, ue), fleet_ue_seed(77, ue));
  }
}

// ---- presets match the setups they name -----------------------------------

class PresetEquivalence : public ::testing::TestWithParam<MobilityScenario> {};

TEST_P(PresetEquivalence, SingleUePresetMatchesLegacyConfigBitForBit) {
  const MobilityScenario mobility = GetParam();

  // The paper's setup as the original single-mobile configuration spelled
  // it, field by field from the defaults: the mobility, three cells for
  // the vehicular drive (it passes several) and two otherwise, and the
  // 40 m cell edge of the rotation testbed.
  ScenarioSpec explicit_spec;
  explicit_spec.ues.front().mobility = mobility;
  explicit_spec.n_cells = mobility == MobilityScenario::kVehicular ? 3U : 2U;
  if (mobility == MobilityScenario::kRotation) {
    explicit_spec.deployment.inter_site_m = 40.0;
  }
  explicit_spec.duration = 8'000_ms;
  explicit_spec.seed = 1000;
  explicit_spec.collect_trace = true;

  const ScenarioSpec spec = SpecBuilder(preset::paper(mobility))
                                .duration(8'000_ms)
                                .seed(1000)
                                .collect_trace()
                                .build();
  ASSERT_EQ(spec.ue_count(), 1u);

  EXPECT_EQ(fingerprint(run_scenario(explicit_spec)),
            fingerprint(run_scenario(spec)));
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, PresetEquivalence,
                         ::testing::Values(MobilityScenario::kHumanWalk,
                                           MobilityScenario::kRotation,
                                           MobilityScenario::kVehicular));

TEST(Presets, PaperFramesMatchTheEvaluationSetups) {
  const ScenarioSpec walk = preset::paper_walk();
  EXPECT_EQ(walk.n_cells, 2u);
  EXPECT_EQ(walk.duration, 25'000_ms);
  ASSERT_EQ(walk.ue_count(), 1u);
  EXPECT_EQ(walk.ues.front().mobility, MobilityScenario::kHumanWalk);

  const ScenarioSpec rotation = preset::paper_rotation();
  EXPECT_EQ(rotation.n_cells, 2u);
  // The paper's rotation runs use the tighter cell edge.
  EXPECT_DOUBLE_EQ(rotation.deployment.inter_site_m, 40.0);
  EXPECT_EQ(rotation.ues.front().mobility, MobilityScenario::kRotation);

  const ScenarioSpec vehicular = preset::paper_vehicular();
  EXPECT_EQ(vehicular.n_cells, 3u);
  EXPECT_EQ(vehicular.ues.front().mobility, MobilityScenario::kVehicular);
  EXPECT_TRUE(vehicular.ues.front().chain_handovers);
}

// ---- standalone vs fleet equivalence --------------------------------------

TEST(ScenarioSpecFleet, UeRealisationIsIdenticalAloneAndInAFleet) {
  // Three heterogeneous mobiles in one frame. Each UE k, run standalone
  // from a single-UE spec seeded with its fleet root, must reproduce its
  // in-fleet trajectory bit for bit — the per-UE splitmix derivation is
  // what makes fleet membership invisible to the individual mobile.
  ScenarioSpec fleet = SpecBuilder(preset::paper_vehicular())
                           .duration(3'000_ms)
                           .seed(424242)
                           .ue(preset::walking_ue())
                           .ue(preset::rotating_ue())
                           .collect_trace()
                           .build();
  ASSERT_EQ(fleet.ue_count(), 3u);

  for (std::size_t ue = 0; ue < fleet.ue_count(); ++ue) {
    const ScenarioResult in_fleet = run_scenario_ue(fleet, ue);

    ScenarioSpec alone = fleet;
    alone.ues = {fleet.ues[ue]};
    alone.seed = fleet_ue_seed(fleet.seed, ue);
    const ScenarioResult standalone = run_scenario(alone);

    EXPECT_EQ(fingerprint(in_fleet), fingerprint(standalone)) << "ue " << ue;
  }
}

TEST(ScenarioSpecFleet, RunScenarioRejectsFleets) {
  const ScenarioSpec fleet =
      SpecBuilder(preset::paper_walk()).ue(preset::walking_ue()).build();
  EXPECT_THROW((void)run_scenario(fleet), std::invalid_argument);
}

TEST(ScenarioSpecFleet, RunScenarioUeRejectsOutOfRangeIndex) {
  const ScenarioSpec spec = preset::paper_walk();
  EXPECT_THROW((void)run_scenario_ue(spec, 1), std::out_of_range);
}

// ---- builder validation ---------------------------------------------------

TEST(SpecBuilder, ValidatesAtBuild) {
  EXPECT_THROW((void)SpecBuilder().build(), std::invalid_argument);  // no UEs
  EXPECT_THROW((void)SpecBuilder(preset::paper_walk()).cells(0).build(),
               std::invalid_argument);
  EXPECT_THROW((void)SpecBuilder(preset::paper_walk())
                   .duration(sim::Duration::milliseconds(0))
                   .build(),
               std::invalid_argument);
  EXPECT_THROW((void)SpecBuilder(preset::paper_walk())
                   .metric_period(sim::Duration::milliseconds(0))
                   .build(),
               std::invalid_argument);
}

TEST(SpecBuilder, UesAppendsSharedProfiles) {
  const ScenarioSpec spec =
      SpecBuilder().cells(2).ues(5, preset::walking_ue()).build();
  EXPECT_EQ(spec.ue_count(), 5u);
  for (const UeProfile& ue : spec.ues) {
    EXPECT_EQ(ue.mobility, MobilityScenario::kHumanWalk);
  }
}

}  // namespace
}  // namespace st::core
