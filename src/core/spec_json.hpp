// JSON wire format for the scenario API.
//
// The scenario service (src/serve) accepts jobs as "preset name +
// SpecBuilder-style overrides + seed" JSON documents; this header owns
// the mapping between that wire format and the in-memory
// ScenarioSpec/UeProfile structs, so the service layer never touches
// spec internals and the format is testable without a socket.
//
// A job document looks like:
//
//   {
//     "preset": "paper_walk",            // required: paper_walk |
//                                        //   paper_rotation | paper_vehicular |
//                                        //   grid_walk | corridor_drive |
//                                        //   edge_ping_pong
//     "seed": 7,                         // optional, overrides the preset's
//     "overrides": {                     // optional, all keys optional
//       "cells": 3,
//       "duration_ms": 8000.0,
//       "metric_period_ms": 10.0,
//       "collect_trace": false,
//       "deployment": {"inter_site_m": 40.0, ...},
//       "deployment_shape": "grid",      // row | grid | corridor
//       "grid_cols": 3,                  // grid width; 0 = square-ish
//       "cell_load": [0.0, 0.5, ...],    // offered load per cell, in [0,1]
//       "rate": {"enabled": true,        // the observer-only rate layer
//                "n_rb": 66, "slots_per_second": 8000.0,
//                "outage_sinr_db": -5.0, "min_outage_ms": 50.0},
//       "n_ues": 8,                      // replicate the preset's profile
//       "ue": {"mobility": "vehicular", "ue_beamwidth_deg": 30.0, ...},
//       "ues": [{...}, {...}]            // or: replace the fleet outright
//     }
//   }
//
// A "ue" / "ues" entry may carry a nested "handover_policy" object
// (enabled, hysteresis_db, load_penalty_db, penalty_time_ms,
// candidate_ttl_ms, crossover_votes, rival_scan_period_ms,
// ping_pong_window_ms) configuring the neighbour-ranking decision layer,
// a nested "beam_policy" object ({"policy": "silent_tracker" |
// "silent_tracker_full_sweep" | "hierarchical" | "blind",
// "coarse_stride": 0}) selecting the
// beam-management strategy, plus "ping_pong_speed_mps" /
// "ping_pong_amplitude_m" for the ping_pong mobility.
//
// Unknown keys anywhere are *errors*, not ignored — a typo'd override
// silently falling back to the preset default would corrupt experiment
// campaigns. All failures throw json::ParseError with a message naming
// the offending key; the service maps that to a typed `bad_request`
// wire error.
//
// The reverse direction (spec_to_json) serialises the resolved spec so
// a served job can echo exactly what it is about to run; it emits only
// wire-format fields (frame + deployment + per-UE scalars) — nested
// protocol configs stay at their preset values on the wire.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/json.hpp"
#include "core/scenario_spec.hpp"

namespace st::core {

/// Hard ceiling on the fleet size a job document may request via
/// `n_ues` (or an explicit `ues` array of that length — the array is
/// naturally bounded by the 1 MiB request frame, the scalar is not).
/// Far above any experiment in the paper; exists so a hostile 12-byte
/// override cannot make the decoder allocate unbounded memory.
inline constexpr std::uint64_t kMaxFleetUes = 65536;

/// Preset lookup by wire name ("paper_walk", "paper_rotation",
/// "paper_vehicular", "grid_walk", "corridor_drive", "edge_ping_pong");
/// throws json::ParseError on an unknown name.
[[nodiscard]] ScenarioSpec preset_by_name(std::string_view name);

/// Parse a mobility / protocol wire name (the to_string() spellings);
/// throws json::ParseError on an unknown name.
[[nodiscard]] MobilityScenario mobility_from_string(std::string_view name);
[[nodiscard]] ProtocolKind protocol_from_string(std::string_view name);

/// Apply one "ue" override object onto a profile (unknown keys throw).
void apply_profile_overrides(UeProfile& profile, const json::Value& overrides);

/// Apply a SpecBuilder-style override object onto a spec (unknown keys
/// throw). `n_ues` replicates the spec's first profile; `ue` mutates
/// every profile; `ues` replaces the fleet with fully parsed profiles.
void apply_spec_overrides(ScenarioSpec& spec, const json::Value& overrides);

/// Resolve a full job document (preset + seed + overrides, as above)
/// into a validated spec. Runs the result through SpecBuilder::build()
/// so the service rejects exactly what the library rejects.
[[nodiscard]] ScenarioSpec spec_from_job_json(const json::Value& job);

/// Serialise the wire-format fields of a spec (see header comment).
[[nodiscard]] json::Value spec_to_json(const ScenarioSpec& spec);

/// Serialise one profile's wire-format fields.
[[nodiscard]] json::Value profile_to_json(const UeProfile& profile);

}  // namespace st::core
