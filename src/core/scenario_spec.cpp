#include "core/scenario_spec.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"

namespace st::core {

std::string_view to_string(MobilityScenario s) noexcept {
  switch (s) {
    case MobilityScenario::kHumanWalk:
      return "human_walk";
    case MobilityScenario::kRotation:
      return "rotation";
    case MobilityScenario::kVehicular:
      return "vehicular";
    case MobilityScenario::kPingPong:
      return "ping_pong";
  }
  return "?";
}

std::string_view to_string(ProtocolKind p) noexcept {
  switch (p) {
    case ProtocolKind::kSilentTracker:
      return "silent_tracker";
    case ProtocolKind::kReactive:
      return "reactive";
  }
  return "?";
}

std::uint64_t fleet_ue_seed(std::uint64_t fleet_seed, std::size_t ue) noexcept {
  if (ue == 0) {
    // The first mobile owns the fleet seed outright, so single-UE seeds
    // reproduce the published tables.
    return fleet_seed;
  }
  // Later mobiles draw from a SplitMix64 stream over a label-derived root,
  // not from the fleet seed directly: adjacent fleet seeds (1000, 1001, …
  // as the benches use) must not alias each other's UE roots.
  SplitMix64 stream(derive_seed(fleet_seed, "fleet/ue"));
  std::uint64_t root = 0;
  for (std::size_t k = 0; k < ue; ++k) {
    root = stream.next();
  }
  return root;
}

ScenarioSpec SpecBuilder::build() const {
  if (spec_.ues.empty()) {
    throw std::invalid_argument("ScenarioSpec: fleet needs at least one UE");
  }
  if (spec_.n_cells == 0) {
    throw std::invalid_argument("ScenarioSpec: need at least one cell");
  }
  if (spec_.duration <= sim::Duration::nanoseconds(0)) {
    throw std::invalid_argument("ScenarioSpec: duration must be positive");
  }
  if (spec_.metric_period <= sim::Duration::nanoseconds(0)) {
    throw std::invalid_argument(
        "ScenarioSpec: metric period must be positive");
  }
  if (!spec_.cell_load.empty()) {
    if (spec_.cell_load.size() != spec_.n_cells) {
      throw std::invalid_argument(
          "ScenarioSpec: cell_load must name every cell (or be empty)");
    }
    for (const double load : spec_.cell_load) {
      if (!(load >= 0.0 && load <= 1.0)) {
        throw std::invalid_argument(
            "ScenarioSpec: cell_load entries must be in [0, 1]");
      }
    }
  }
  if (spec_.rate.enabled) {
    if (spec_.rate.n_rb == 0 || spec_.rate.slots_per_second <= 0.0) {
      throw std::invalid_argument(
          "ScenarioSpec: rate layer needs positive n_rb and slot rate");
    }
    if (spec_.rate.min_outage <= sim::Duration::nanoseconds(0)) {
      throw std::invalid_argument(
          "ScenarioSpec: rate.min_outage must be positive");
    }
  }
  for (const UeProfile& profile : spec_.ues) {
    net::validate(profile.handover_policy);
    if (profile.mobility == MobilityScenario::kPingPong &&
        (profile.ping_pong_speed_mps <= 0.0 ||
         profile.ping_pong_amplitude_m <= 0.0)) {
      throw std::invalid_argument(
          "ScenarioSpec: ping-pong speed and amplitude must be positive");
    }
  }
  return spec_;
}

namespace preset {

using sim::Duration;

UeProfile walking_ue() {
  return UeProfile{};  // defaults are the paper's walking mobile
}

UeProfile rotating_ue() {
  UeProfile profile;
  profile.mobility = MobilityScenario::kRotation;
  return profile;
}

UeProfile vehicular_ue() {
  UeProfile profile;
  profile.mobility = MobilityScenario::kVehicular;
  return profile;
}

ScenarioSpec paper_walk() {
  ScenarioSpec spec;
  spec.n_cells = 2;
  spec.duration = Duration::milliseconds(25'000);
  spec.ues = {walking_ue()};
  return spec;
}

ScenarioSpec paper_rotation() {
  ScenarioSpec spec;
  spec.n_cells = 2;
  spec.duration = Duration::milliseconds(25'000);
  // Rotation does not translate the mobile, so the inter-site distance
  // only sets the SNR levels; the paper's 3-node testbed kept all nodes
  // at ~10 m scale, modelled as a tighter 40 m row.
  spec.deployment.inter_site_m = 40.0;
  spec.ues = {rotating_ue()};
  return spec;
}

ScenarioSpec paper_vehicular() {
  ScenarioSpec spec;
  spec.n_cells = 3;  // the drive passes several cells
  spec.duration = Duration::milliseconds(25'000);
  spec.ues = {vehicular_ue()};
  return spec;
}

ScenarioSpec paper(MobilityScenario mobility) {
  switch (mobility) {
    case MobilityScenario::kHumanWalk:
      return paper_walk();
    case MobilityScenario::kRotation:
      return paper_rotation();
    case MobilityScenario::kVehicular:
      return paper_vehicular();
    case MobilityScenario::kPingPong:
      return edge_ping_pong();
  }
  throw std::logic_error("preset::paper: unknown scenario");
}

namespace {

/// Graded offered load over `n` cells: cell i carries i/(n−1) of full
/// load, capped at 0.8. Deterministic and asymmetric on purpose — equal
/// load would make the load penalty a no-op in the presets.
std::vector<double> graded_load(unsigned n) {
  std::vector<double> load(n, 0.0);
  if (n <= 1) {
    return load;
  }
  for (unsigned i = 0; i < n; ++i) {
    load[i] = std::min(0.8, static_cast<double>(i) /
                                static_cast<double>(n - 1));
  }
  return load;
}

}  // namespace

ScenarioSpec grid_walk() {
  ScenarioSpec spec;
  spec.n_cells = 9;
  spec.deployment_shape = net::DeploymentShape::kGrid;
  spec.grid_cols = 3;
  spec.cell_load = graded_load(spec.n_cells);
  spec.duration = Duration::milliseconds(25'000);
  UeProfile profile = walking_ue();
  profile.handover_policy.enabled = true;
  spec.ues = {profile};
  return spec;
}

ScenarioSpec corridor_drive() {
  ScenarioSpec spec;
  spec.n_cells = 9;
  spec.deployment_shape = net::DeploymentShape::kCorridor;
  spec.cell_load = graded_load(spec.n_cells);
  spec.duration = Duration::milliseconds(25'000);
  UeProfile profile = vehicular_ue();
  profile.handover_policy.enabled = true;
  spec.ues = {profile};
  return spec;
}

ScenarioSpec edge_ping_pong() {
  ScenarioSpec spec;
  spec.n_cells = 9;
  spec.deployment_shape = net::DeploymentShape::kGrid;
  spec.grid_cols = 3;
  spec.duration = Duration::milliseconds(25'000);
  UeProfile profile;
  profile.mobility = MobilityScenario::kPingPong;
  profile.handover_policy.enabled = true;
  spec.ues = {profile};
  return spec;
}

}  // namespace preset

}  // namespace st::core
