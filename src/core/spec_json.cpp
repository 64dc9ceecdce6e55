#include "core/spec_json.hpp"

#include <string>

namespace st::core {

namespace {

using json::ParseError;
using json::Value;

[[noreturn]] void fail(const std::string& what) { throw ParseError(what); }

/// Walk an override object, dispatching each member through `apply`;
/// `apply` returns false for keys it does not know.
template <typename Fn>
void for_each_member(const Value& overrides, std::string_view where,
                     const Fn& apply) {
  if (!overrides.is_object()) {
    fail(std::string(where) + ": expected an object");
  }
  for (const Value::Member& member : overrides.members()) {
    if (!apply(member.first, member.second)) {
      fail(std::string(where) + ": unknown key \"" + member.first + "\"");
    }
  }
}

[[nodiscard]] sim::Duration duration_ms(const Value& v,
                                        std::string_view where) {
  if (!v.is_number()) {
    fail(std::string(where) + ": expected a number (milliseconds)");
  }
  return sim::Duration::nanoseconds(
      static_cast<std::int64_t>(v.as_double() * 1e6));
}

[[nodiscard]] net::DeploymentShape shape_from_string(std::string_view name) {
  if (name == to_string(net::DeploymentShape::kRow)) {
    return net::DeploymentShape::kRow;
  }
  if (name == to_string(net::DeploymentShape::kGrid)) {
    return net::DeploymentShape::kGrid;
  }
  if (name == to_string(net::DeploymentShape::kCorridor)) {
    return net::DeploymentShape::kCorridor;
  }
  fail("unknown deployment_shape \"" + std::string(name) +
       "\" (expected row, grid, or corridor)");
}

void apply_handover_policy_overrides(net::HandoverPolicyConfig& policy,
                                     const Value& overrides) {
  for_each_member(
      overrides, "handover_policy",
      [&](const std::string& key, const Value& v) {
        if (key == "enabled") {
          policy.enabled = v.as_bool();
        } else if (key == "hysteresis_db") {
          policy.hysteresis_db = v.as_double();
        } else if (key == "load_penalty_db") {
          policy.load_penalty_db = v.as_double();
        } else if (key == "penalty_time_ms") {
          policy.penalty_time = duration_ms(v, "penalty_time_ms");
        } else if (key == "candidate_ttl_ms") {
          policy.candidate_ttl = duration_ms(v, "candidate_ttl_ms");
        } else if (key == "crossover_votes") {
          policy.crossover_votes = static_cast<unsigned>(v.as_u64());
        } else if (key == "rival_scan_period_ms") {
          policy.rival_scan_period = duration_ms(v, "rival_scan_period_ms");
        } else if (key == "ping_pong_window_ms") {
          policy.ping_pong_window = duration_ms(v, "ping_pong_window_ms");
        } else {
          return false;
        }
        return true;
      });
}

[[nodiscard]] BeamPolicyKind beam_policy_kind_from_string(
    std::string_view name) {
  for (const BeamPolicyKind kind :
       {BeamPolicyKind::kSilentTracker, BeamPolicyKind::kFullSweep,
        BeamPolicyKind::kHierarchical, BeamPolicyKind::kBlind}) {
    if (name == to_string(kind)) {
      return kind;
    }
  }
  fail("unknown beam policy \"" + std::string(name) +
       "\" (expected silent_tracker, silent_tracker_full_sweep, "
       "hierarchical, or blind)");
}

void apply_beam_policy_overrides(BeamPolicyConfig& policy,
                                 const Value& overrides) {
  for_each_member(
      overrides, "beam_policy", [&](const std::string& key, const Value& v) {
        if (key == "policy") {
          policy.kind = beam_policy_kind_from_string(v.as_string());
        } else if (key == "coarse_stride") {
          policy.coarse_stride = static_cast<unsigned>(v.as_u64());
        } else {
          return false;
        }
        return true;
      });
}

void apply_rate_overrides(rate::RateConfig& rate, const Value& overrides) {
  for_each_member(
      overrides, "rate", [&](const std::string& key, const Value& v) {
        if (key == "enabled") {
          rate.enabled = v.as_bool();
        } else if (key == "n_rb") {
          rate.n_rb = static_cast<std::uint32_t>(v.as_u64());
        } else if (key == "slots_per_second") {
          rate.slots_per_second = v.as_double();
        } else if (key == "outage_sinr_db") {
          rate.outage_sinr_db = v.as_double();
        } else if (key == "min_outage_ms") {
          rate.min_outage = duration_ms(v, "min_outage_ms");
        } else {
          return false;
        }
        return true;
      });
}

void apply_deployment_overrides(net::DeploymentConfig& deployment,
                                const Value& overrides) {
  for_each_member(
      overrides, "deployment",
      [&](const std::string& key, const Value& v) {
        if (key == "inter_site_m") {
          deployment.inter_site_m = v.as_double();
        } else if (key == "corridor_offset_m") {
          deployment.corridor_offset_m = v.as_double();
        } else if (key == "bs_beamwidth_deg") {
          deployment.bs_beamwidth_deg = v.as_double();
        } else if (key == "bs_tx_power_dbm") {
          deployment.bs_tx_power_dbm = v.as_double();
        } else {
          return false;
        }
        return true;
      });
}

}  // namespace

ScenarioSpec preset_by_name(std::string_view name) {
  if (name == "paper_walk") {
    return preset::paper_walk();
  }
  if (name == "paper_rotation") {
    return preset::paper_rotation();
  }
  if (name == "paper_vehicular") {
    return preset::paper_vehicular();
  }
  if (name == "grid_walk") {
    return preset::grid_walk();
  }
  if (name == "corridor_drive") {
    return preset::corridor_drive();
  }
  if (name == "edge_ping_pong") {
    return preset::edge_ping_pong();
  }
  fail("unknown preset \"" + std::string(name) +
       "\" (expected paper_walk, paper_rotation, paper_vehicular, "
       "grid_walk, corridor_drive, or edge_ping_pong)");
}

MobilityScenario mobility_from_string(std::string_view name) {
  if (name == to_string(MobilityScenario::kHumanWalk)) {
    return MobilityScenario::kHumanWalk;
  }
  if (name == to_string(MobilityScenario::kRotation)) {
    return MobilityScenario::kRotation;
  }
  if (name == to_string(MobilityScenario::kVehicular)) {
    return MobilityScenario::kVehicular;
  }
  if (name == to_string(MobilityScenario::kPingPong)) {
    return MobilityScenario::kPingPong;
  }
  fail("unknown mobility \"" + std::string(name) + "\"");
}

ProtocolKind protocol_from_string(std::string_view name) {
  if (name == to_string(ProtocolKind::kSilentTracker)) {
    return ProtocolKind::kSilentTracker;
  }
  if (name == to_string(ProtocolKind::kReactive)) {
    return ProtocolKind::kReactive;
  }
  fail("unknown protocol \"" + std::string(name) + "\"");
}

void apply_profile_overrides(UeProfile& profile, const Value& overrides) {
  for_each_member(
      overrides, "ue", [&](const std::string& key, const Value& v) {
        if (key == "mobility") {
          profile.mobility = mobility_from_string(v.as_string());
        } else if (key == "protocol") {
          profile.protocol = protocol_from_string(v.as_string());
        } else if (key == "ue_beamwidth_deg") {
          profile.ue_beamwidth_deg = v.as_double();
        } else if (key == "ue_ula_codebook") {
          profile.ue_ula_codebook = v.as_bool();
        } else if (key == "walk_speed_mps") {
          profile.walk_speed_mps = v.as_double();
        } else if (key == "rotation_rate_deg_s") {
          profile.rotation_rate_deg_s = v.as_double();
        } else if (key == "vehicle_speed_mph") {
          profile.vehicle_speed_mph = v.as_double();
        } else if (key == "ping_pong_speed_mps") {
          profile.ping_pong_speed_mps = v.as_double();
        } else if (key == "ping_pong_amplitude_m") {
          profile.ping_pong_amplitude_m = v.as_double();
        } else if (key == "handover_policy") {
          apply_handover_policy_overrides(profile.handover_policy, v);
        } else if (key == "beam_policy") {
          apply_beam_policy_overrides(profile.beam_policy, v);
        } else if (key == "chain_handovers") {
          profile.chain_handovers = v.as_bool();
        } else {
          return false;
        }
        return true;
      });
}

void apply_spec_overrides(ScenarioSpec& spec, const Value& overrides) {
  for_each_member(
      overrides, "overrides", [&](const std::string& key, const Value& v) {
        if (key == "cells") {
          spec.n_cells = static_cast<unsigned>(v.as_u64());
        } else if (key == "duration_ms") {
          spec.duration = duration_ms(v, "duration_ms");
        } else if (key == "metric_period_ms") {
          spec.metric_period = duration_ms(v, "metric_period_ms");
        } else if (key == "collect_trace") {
          spec.collect_trace = v.as_bool();
        } else if (key == "trace_buffer_capacity") {
          spec.trace_buffer_capacity = static_cast<std::size_t>(v.as_u64());
        } else if (key == "seed") {
          spec.seed = v.as_u64();
        } else if (key == "deployment") {
          apply_deployment_overrides(spec.deployment, v);
        } else if (key == "deployment_shape") {
          spec.deployment_shape = shape_from_string(v.as_string());
        } else if (key == "grid_cols") {
          spec.grid_cols = static_cast<unsigned>(v.as_u64());
        } else if (key == "cell_load") {
          spec.cell_load.clear();
          for (const Value& entry : v.items()) {
            spec.cell_load.push_back(entry.as_double());
          }
        } else if (key == "rate") {
          apply_rate_overrides(spec.rate, v);
        } else if (key == "n_ues") {
          const std::uint64_t n = v.as_u64();
          if (n == 0 || spec.ues.empty()) {
            fail("n_ues: need a non-empty fleet to replicate");
          }
          if (n > kMaxFleetUes) {
            // This key arrives from untrusted clients; without the cap a
            // 12-byte override allocates 2^64 profiles before any
            // admission control sees the job.
            fail("n_ues: exceeds the fleet cap of " +
                 std::to_string(kMaxFleetUes));
          }
          spec.ues.assign(static_cast<std::size_t>(n), spec.ues.front());
        } else if (key == "ue") {
          for (UeProfile& profile : spec.ues) {
            apply_profile_overrides(profile, v);
          }
        } else if (key == "ues") {
          spec.ues.clear();
          for (const Value& entry : v.items()) {
            UeProfile profile;
            apply_profile_overrides(profile, entry);
            spec.ues.push_back(profile);
          }
        } else {
          return false;
        }
        return true;
      });
}

ScenarioSpec spec_from_job_json(const Value& job) {
  if (!job.is_object()) {
    fail("job: expected an object");
  }
  const Value* preset = job.find("preset");
  if (preset == nullptr) {
    fail("job: missing \"preset\"");
  }
  ScenarioSpec spec = preset_by_name(preset->as_string());

  for (const Value::Member& member : job.members()) {
    if (member.first == "preset") {
      continue;
    }
    if (member.first == "seed") {
      spec.seed = member.second.as_u64();
    } else if (member.first == "overrides") {
      apply_spec_overrides(spec, member.second);
    } else {
      fail("job: unknown key \"" + member.first + "\"");
    }
  }
  // The builder's validation is the contract; a job must not be able to
  // assemble a spec the library itself would reject.
  return SpecBuilder(std::move(spec)).build();
}

Value profile_to_json(const UeProfile& profile) {
  Value out = Value::object();
  out.set("mobility", to_string(profile.mobility));
  out.set("protocol", to_string(profile.protocol));
  out.set("ue_beamwidth_deg", profile.ue_beamwidth_deg);
  out.set("ue_ula_codebook", Value::boolean(profile.ue_ula_codebook));
  out.set("walk_speed_mps", profile.walk_speed_mps);
  out.set("rotation_rate_deg_s", profile.rotation_rate_deg_s);
  out.set("vehicle_speed_mph", profile.vehicle_speed_mph);
  out.set("ping_pong_speed_mps", profile.ping_pong_speed_mps);
  out.set("ping_pong_amplitude_m", profile.ping_pong_amplitude_m);
  out.set("chain_handovers", Value::boolean(profile.chain_handovers));

  const net::HandoverPolicyConfig& policy = profile.handover_policy;
  Value ho = Value::object();
  ho.set("enabled", Value::boolean(policy.enabled));
  ho.set("hysteresis_db", policy.hysteresis_db);
  ho.set("load_penalty_db", policy.load_penalty_db);
  ho.set("penalty_time_ms", policy.penalty_time.ms());
  ho.set("candidate_ttl_ms", policy.candidate_ttl.ms());
  ho.set("crossover_votes", Value::unsigned_integer(policy.crossover_votes));
  ho.set("rival_scan_period_ms", policy.rival_scan_period.ms());
  ho.set("ping_pong_window_ms", policy.ping_pong_window.ms());
  out.set("handover_policy", std::move(ho));

  Value bp = Value::object();
  bp.set("policy", to_string(profile.beam_policy.kind));
  bp.set("coarse_stride",
         Value::unsigned_integer(profile.beam_policy.coarse_stride));
  out.set("beam_policy", std::move(bp));
  return out;
}

Value spec_to_json(const ScenarioSpec& spec) {
  Value out = Value::object();
  out.set("cells", Value::unsigned_integer(spec.n_cells));
  out.set("duration_ms", spec.duration.ms());
  out.set("metric_period_ms", spec.metric_period.ms());
  out.set("collect_trace", Value::boolean(spec.collect_trace));
  out.set("seed", spec.seed);

  Value deployment = Value::object();
  deployment.set("inter_site_m", spec.deployment.inter_site_m);
  deployment.set("corridor_offset_m", spec.deployment.corridor_offset_m);
  deployment.set("bs_beamwidth_deg", spec.deployment.bs_beamwidth_deg);
  deployment.set("bs_tx_power_dbm", spec.deployment.bs_tx_power_dbm);
  out.set("deployment", std::move(deployment));
  out.set("deployment_shape", to_string(spec.deployment_shape));
  out.set("grid_cols", Value::unsigned_integer(spec.grid_cols));
  Value load = Value::array();
  for (const double l : spec.cell_load) {
    load.push_back(Value::number(l));
  }
  out.set("cell_load", std::move(load));

  Value rate = Value::object();
  rate.set("enabled", Value::boolean(spec.rate.enabled));
  rate.set("n_rb", Value::unsigned_integer(spec.rate.n_rb));
  rate.set("slots_per_second", spec.rate.slots_per_second);
  rate.set("outage_sinr_db", spec.rate.outage_sinr_db);
  rate.set("min_outage_ms", spec.rate.min_outage.ms());
  out.set("rate", std::move(rate));

  Value ues = Value::array();
  for (const UeProfile& profile : spec.ues) {
    ues.push_back(profile_to_json(profile));
  }
  out.set("ues", std::move(ues));
  return out;
}

}  // namespace st::core
