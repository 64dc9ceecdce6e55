// The job-document wire format: preset + overrides + seed resolves to
// exactly the spec the SpecBuilder API would build, and every unknown
// or ill-typed key is a typed error rather than a silent fallback.
#include "core/spec_json.hpp"

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "core/scenario_spec.hpp"

namespace {

using st::core::ScenarioSpec;
using st::core::spec_from_job_json;
using st::core::spec_to_json;
using st::json::parse;
using st::json::ParseError;

ScenarioSpec from_text(const char* text) {
  return spec_from_job_json(parse(text));
}

TEST(SpecJson, PresetOnlyMatchesLibraryPreset) {
  const ScenarioSpec wire = from_text(R"({"preset": "paper_walk"})");
  const ScenarioSpec lib = st::core::preset::paper_walk();
  EXPECT_EQ(spec_to_json(wire).dump(), spec_to_json(lib).dump());
}

TEST(SpecJson, AllPresetNamesResolve) {
  EXPECT_NO_THROW((void)from_text(R"({"preset": "paper_walk"})"));
  EXPECT_NO_THROW((void)from_text(R"({"preset": "paper_rotation"})"));
  EXPECT_NO_THROW((void)from_text(R"({"preset": "paper_vehicular"})"));
  EXPECT_THROW((void)from_text(R"({"preset": "paper_typo"})"), ParseError);
}

TEST(SpecJson, SeedOverrideWins) {
  const ScenarioSpec spec =
      from_text(R"({"preset": "paper_walk", "seed": 18446744073709551615})");
  EXPECT_EQ(spec.seed, 18446744073709551615ULL);
}

TEST(SpecJson, OverridesMatchSpecBuilder) {
  const ScenarioSpec wire = from_text(R"({
    "preset": "paper_walk",
    "seed": 11,
    "overrides": {
      "cells": 3,
      "duration_ms": 5000,
      "metric_period_ms": 20,
      "n_ues": 4,
      "deployment": {"inter_site_m": 42.0},
      "ue": {"walk_speed_mps": 2.5}
    }
  })");

  ScenarioSpec direct = st::core::preset::paper_walk();
  direct.seed = 11;
  direct.n_cells = 3;
  direct.duration = st::sim::Duration::milliseconds(5000);
  direct.metric_period = st::sim::Duration::milliseconds(20);
  direct.deployment.inter_site_m = 42.0;
  direct.ues.assign(4, direct.ues.front());
  for (auto& ue : direct.ues) {
    ue.walk_speed_mps = 2.5;
  }
  direct = st::core::SpecBuilder(std::move(direct)).build();

  EXPECT_EQ(spec_to_json(wire).dump(), spec_to_json(direct).dump());
}

TEST(SpecJson, UesArrayReplacesFleet) {
  const ScenarioSpec spec = from_text(R"({
    "preset": "paper_walk",
    "overrides": {"ues": [
      {"mobility": "human_walk"},
      {"mobility": "vehicular", "vehicle_speed_mph": 25.0},
      {"mobility": "rotation", "protocol": "reactive"}
    ]}
  })");
  ASSERT_EQ(spec.ues.size(), 3U);
  EXPECT_EQ(spec.ues[1].mobility, st::core::MobilityScenario::kVehicular);
  EXPECT_DOUBLE_EQ(spec.ues[1].vehicle_speed_mph, 25.0);
  EXPECT_EQ(spec.ues[2].protocol, st::core::ProtocolKind::kReactive);
}

TEST(SpecJson, UnknownKeysAreErrorsAtEveryLevel) {
  // Top level.
  EXPECT_THROW((void)from_text(R"({"preset": "paper_walk", "sede": 3})"),
               ParseError);
  // Overrides level (typo'd duration must not silently fall back).
  EXPECT_THROW(
      (void)from_text(
          R"({"preset": "paper_walk", "overrides": {"duration": 5000}})"),
      ParseError);
  // UE level.
  EXPECT_THROW(
      (void)from_text(
          R"({"preset": "paper_walk", "overrides": {"ue": {"speed": 1}}})"),
      ParseError);
  // Deployment level.
  EXPECT_THROW((void)from_text(R"({"preset": "paper_walk",
                   "overrides": {"deployment": {"isd": 40}}})"),
               ParseError);
}

TEST(SpecJson, FleetReplicationIsCapped) {
  // `n_ues` arrives from unauthenticated clients; without the cap a
  // 12-byte override would make the decoder allocate 2^64 profiles.
  EXPECT_THROW(
      (void)from_text(
          R"({"preset": "paper_walk",
              "overrides": {"n_ues": 18446744073709551615}})"),
      ParseError);
  EXPECT_THROW((void)from_text(R"({"preset": "paper_walk",
                   "overrides": {"n_ues": 65537}})"),
               ParseError);
  // The cap itself is legal.
  const ScenarioSpec spec = from_text(R"({"preset": "paper_walk",
      "overrides": {"n_ues": 65536, "duration_ms": 10}})");
  EXPECT_EQ(spec.ues.size(), st::core::kMaxFleetUes);
}

TEST(SpecJson, IllTypedValuesAreErrors) {
  EXPECT_THROW((void)from_text(R"({"preset": "paper_walk", "seed": "x"})"),
               ParseError);
  EXPECT_THROW(
      (void)from_text(
          R"({"preset": "paper_walk", "overrides": {"cells": "three"}})"),
      ParseError);
  EXPECT_THROW(
      (void)from_text(
          R"({"preset": "paper_walk", "overrides": {"ue": "walker"}})"),
      ParseError);
  EXPECT_THROW((void)from_text(R"({"preset": 7})"), ParseError);
  EXPECT_THROW((void)from_text(R"([])"), ParseError);
  EXPECT_THROW((void)from_text(R"({})"), ParseError);
}

TEST(SpecJson, BuilderValidationStillApplies) {
  // The wire path must reject exactly what SpecBuilder rejects.
  EXPECT_THROW(
      (void)from_text(
          R"({"preset": "paper_walk", "overrides": {"cells": 0}})"),
      std::invalid_argument);
  EXPECT_THROW(
      (void)from_text(
          R"({"preset": "paper_walk", "overrides": {"duration_ms": 0}})"),
      std::invalid_argument);
  EXPECT_THROW(
      (void)from_text(
          R"({"preset": "paper_walk", "overrides": {"ues": []}})"),
      std::invalid_argument);
}

TEST(SpecJson, MultiCellPresetNamesResolve) {
  EXPECT_NO_THROW((void)from_text(R"({"preset": "grid_walk"})"));
  EXPECT_NO_THROW((void)from_text(R"({"preset": "corridor_drive"})"));
  EXPECT_NO_THROW((void)from_text(R"({"preset": "edge_ping_pong"})"));
}

TEST(SpecJson, DeploymentShapeOverridesApply) {
  const ScenarioSpec spec = from_text(R"({
    "preset": "paper_walk",
    "overrides": {
      "cells": 4,
      "deployment_shape": "grid",
      "grid_cols": 2,
      "cell_load": [0.0, 0.25, 0.5, 0.75]
    }
  })");
  EXPECT_EQ(spec.deployment_shape, st::net::DeploymentShape::kGrid);
  EXPECT_EQ(spec.grid_cols, 2U);
  ASSERT_EQ(spec.cell_load.size(), 4U);
  EXPECT_DOUBLE_EQ(spec.cell_load[1], 0.25);
}

TEST(SpecJson, DeploymentShapeRejectsBadValues) {
  // Unknown shape name.
  EXPECT_THROW((void)from_text(R"({"preset": "paper_walk",
      "overrides": {"deployment_shape": "hexagon"}})"),
               ParseError);
  // Ill-typed cell_load entry.
  EXPECT_THROW((void)from_text(R"({"preset": "paper_walk",
      "overrides": {"cells": 2, "cell_load": [0.1, "busy"]}})"),
               ParseError);
  // Out-of-range load / wrong length are SpecBuilder validation errors.
  EXPECT_THROW((void)from_text(R"({"preset": "paper_walk",
      "overrides": {"cells": 2, "cell_load": [0.1, 1.5]}})"),
               std::invalid_argument);
  EXPECT_THROW((void)from_text(R"({"preset": "paper_walk",
      "overrides": {"cells": 3, "cell_load": [0.1]}})"),
               std::invalid_argument);
}

TEST(SpecJson, HandoverPolicyOverridesApply) {
  const ScenarioSpec spec = from_text(R"({
    "preset": "paper_walk",
    "overrides": {"ue": {"handover_policy": {
      "enabled": true,
      "hysteresis_db": 5.0,
      "load_penalty_db": 12.0,
      "penalty_time_ms": 4000,
      "candidate_ttl_ms": 1500,
      "crossover_votes": 2,
      "rival_scan_period_ms": 250,
      "ping_pong_window_ms": 6000
    }}}
  })");
  const st::net::HandoverPolicyConfig& policy =
      spec.ues.front().handover_policy;
  EXPECT_TRUE(policy.enabled);
  EXPECT_DOUBLE_EQ(policy.hysteresis_db, 5.0);
  EXPECT_DOUBLE_EQ(policy.load_penalty_db, 12.0);
  EXPECT_EQ(policy.penalty_time, st::sim::Duration::milliseconds(4000));
  EXPECT_EQ(policy.candidate_ttl, st::sim::Duration::milliseconds(1500));
  EXPECT_EQ(policy.crossover_votes, 2U);
  EXPECT_EQ(policy.rival_scan_period, st::sim::Duration::milliseconds(250));
  EXPECT_EQ(policy.ping_pong_window, st::sim::Duration::milliseconds(6000));
}

TEST(SpecJson, HandoverPolicyUnknownKeysAreErrors) {
  // A typo'd policy knob must not silently fall back to the default.
  EXPECT_THROW((void)from_text(R"({"preset": "edge_ping_pong",
      "overrides": {"ue": {"handover_policy": {"hysteresis": 5.0}}}})"),
               ParseError);
  EXPECT_THROW((void)from_text(R"({"preset": "edge_ping_pong",
      "overrides": {"ue": {"handover_policy": {"enabled": "yes"}}}})"),
               ParseError);
  EXPECT_THROW((void)from_text(R"({"preset": "edge_ping_pong",
      "overrides": {"ue": {"handover_policy": []}}})"),
               ParseError);
  // Invalid values fail the policy validation at build time.
  EXPECT_THROW((void)from_text(R"({"preset": "edge_ping_pong",
      "overrides": {"ue": {"handover_policy": {"crossover_votes": 0}}}})"),
               std::invalid_argument);
}

TEST(SpecJson, PingPongProfileOverridesApply) {
  const ScenarioSpec spec = from_text(R"({
    "preset": "paper_walk",
    "overrides": {"ue": {"mobility": "ping_pong",
                         "ping_pong_speed_mps": 7.5,
                         "ping_pong_amplitude_m": 12.0}}
  })");
  EXPECT_EQ(spec.ues.front().mobility,
            st::core::MobilityScenario::kPingPong);
  EXPECT_DOUBLE_EQ(spec.ues.front().ping_pong_speed_mps, 7.5);
  EXPECT_DOUBLE_EQ(spec.ues.front().ping_pong_amplitude_m, 12.0);
}

TEST(SpecJson, EchoCarriesDeploymentShapeAndPolicy) {
  const auto doc = spec_to_json(st::core::preset::grid_walk());
  ASSERT_NE(doc.find("deployment_shape"), nullptr);
  EXPECT_EQ(doc.find("deployment_shape")->as_string(), "grid");
  ASSERT_NE(doc.find("grid_cols"), nullptr);
  EXPECT_EQ(doc.find("grid_cols")->as_u64(), 3U);
  ASSERT_NE(doc.find("cell_load"), nullptr);
  EXPECT_EQ(doc.find("cell_load")->items().size(), 9U);
  const auto& ue = doc.find("ues")->items().front();
  ASSERT_NE(ue.find("handover_policy"), nullptr);
  EXPECT_TRUE(ue.find("handover_policy")->find("enabled")->as_bool());
  // The echo round-trips through the parser.
  EXPECT_EQ(parse(doc.dump()).dump(), doc.dump());
}

TEST(SpecJson, BeamPolicyOverridesApply) {
  const ScenarioSpec spec = from_text(R"({
    "preset": "paper_walk",
    "overrides": {"ue": {"beam_policy": {"policy": "hierarchical",
                                         "coarse_stride": 4}}}
  })");
  EXPECT_EQ(spec.ues.front().beam_policy.kind,
            st::core::BeamPolicyKind::kHierarchical);
  EXPECT_EQ(spec.ues.front().beam_policy.coarse_stride, 4U);

  const ScenarioSpec blind = from_text(R"({
    "preset": "paper_walk",
    "overrides": {"ue": {"beam_policy": {"policy": "blind"}}}
  })");
  EXPECT_EQ(blind.ues.front().beam_policy.kind,
            st::core::BeamPolicyKind::kBlind);

  // The E6 full-sweep ablation is a policy kind like the others.
  const ScenarioSpec full_sweep = from_text(R"({
    "preset": "paper_walk",
    "overrides": {"ue": {"beam_policy": {
        "policy": "silent_tracker_full_sweep"}}}
  })");
  EXPECT_EQ(full_sweep.ues.front().beam_policy.kind,
            st::core::BeamPolicyKind::kFullSweep);
}

TEST(SpecJson, BeamPolicyRejectsUnknownPolicyAndKeys) {
  // Unknown policy name.
  EXPECT_THROW((void)from_text(R"({
    "preset": "paper_walk",
    "overrides": {"ue": {"beam_policy": {"policy": "clairvoyant"}}}
  })"),
               ParseError);
  // Unknown key inside the beam_policy object.
  EXPECT_THROW((void)from_text(R"({
    "preset": "paper_walk",
    "overrides": {"ue": {"beam_policy": {"stride": 4}}}
  })"),
               ParseError);
  // Ill-typed values.
  EXPECT_THROW((void)from_text(R"({
    "preset": "paper_walk",
    "overrides": {"ue": {"beam_policy": {"policy": 3}}}
  })"),
               ParseError);
  EXPECT_THROW((void)from_text(R"({
    "preset": "paper_walk",
    "overrides": {"ue": {"beam_policy": "blind"}}
  })"),
               ParseError);
}

TEST(SpecJson, RateOverridesApply) {
  const ScenarioSpec spec = from_text(R"({
    "preset": "paper_walk",
    "overrides": {"rate": {"enabled": true, "n_rb": 100,
                           "slots_per_second": 4000.0,
                           "outage_sinr_db": -3.0, "min_outage_ms": 100}}
  })");
  EXPECT_TRUE(spec.rate.enabled);
  EXPECT_EQ(spec.rate.n_rb, 100U);
  EXPECT_DOUBLE_EQ(spec.rate.slots_per_second, 4000.0);
  EXPECT_DOUBLE_EQ(spec.rate.outage_sinr_db, -3.0);
  EXPECT_EQ(spec.rate.min_outage.ms(), 100.0);

  const ScenarioSpec off = from_text(R"({
    "preset": "paper_walk",
    "overrides": {"rate": {"enabled": false}}
  })");
  EXPECT_FALSE(off.rate.enabled);
}

TEST(SpecJson, RateRejectsUnknownKeysAndBadValues) {
  EXPECT_THROW((void)from_text(R"({
    "preset": "paper_walk",
    "overrides": {"rate": {"bandwidth_mhz": 100}}
  })"),
               ParseError);
  EXPECT_THROW((void)from_text(R"({
    "preset": "paper_walk",
    "overrides": {"rate": {"enabled": "yes"}}
  })"),
               ParseError);
  // Builder validation: a zero RB grid cannot carry traffic.
  EXPECT_THROW((void)from_text(R"({
    "preset": "paper_walk",
    "overrides": {"rate": {"n_rb": 0}}
  })"),
               std::invalid_argument);
}

TEST(SpecJson, EchoRoundTripsBeamPolicyAndRate) {
  ScenarioSpec spec = st::core::preset::paper_walk();
  spec.ues.front().beam_policy.kind = st::core::BeamPolicyKind::kHierarchical;
  spec.ues.front().beam_policy.coarse_stride = 5;
  spec.rate.n_rb = 51;
  const auto doc = spec_to_json(spec);
  ASSERT_NE(doc.find("rate"), nullptr);
  EXPECT_EQ(doc.find("rate")->find("n_rb")->as_u64(), 51U);
  const auto& ue = doc.find("ues")->items().front();
  ASSERT_NE(ue.find("beam_policy"), nullptr);
  EXPECT_EQ(ue.find("beam_policy")->find("policy")->as_string(),
            "hierarchical");
  EXPECT_EQ(ue.find("beam_policy")->find("coarse_stride")->as_u64(), 5U);
  // The echo round-trips through the parser.
  EXPECT_EQ(parse(doc.dump()).dump(), doc.dump());
}

TEST(SpecJson, SpecToJsonEmitsWireFields) {
  const auto doc = spec_to_json(st::core::preset::paper_vehicular());
  EXPECT_NE(doc.find("cells"), nullptr);
  EXPECT_NE(doc.find("duration_ms"), nullptr);
  EXPECT_NE(doc.find("seed"), nullptr);
  EXPECT_NE(doc.find("deployment"), nullptr);
  ASSERT_NE(doc.find("ues"), nullptr);
  ASSERT_FALSE(doc.find("ues")->items().empty());
  EXPECT_EQ(doc.find("ues")->items()[0].find("mobility")->as_string(),
            "vehicular");
  // The document round-trips through the parser.
  EXPECT_EQ(parse(doc.dump()).dump(), doc.dump());
}

}  // namespace
