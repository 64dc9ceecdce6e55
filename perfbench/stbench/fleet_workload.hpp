// The two fleet workloads: fleet::run_fleet on a seeded job document, at
// a fixed thread count, timed in repetitions after a warm-up pass.
#pragma once

#include <cstdint>
#include <string>

#include "stbench/harness.hpp"

namespace stbench {

struct FleetWorkload {
  std::string name;
  /// Worker threads of every fleet run (never 0 = hardware concurrency).
  unsigned threads = 1;
  /// The workload as a service job document (preset + overrides + seed);
  /// set-up decodes it through core::spec_from_job_json.
  std::string job_json;
};

/// True for the names fleet_workload() knows.
[[nodiscard]] bool is_fleet_workload(const std::string& name);

/// The named workload's job document for `seed`:
///  * fleet_paper_mix   — walking/rotating/vehicular paper profiles cycling
///                        over the 3-cell row, zero load, decision layer off;
///  * fleet_grid_loaded — 3×3 grid with grid_walk's graded load, decision
///                        layer on, grid_walk walkers alternating with
///                        edge_ping_pong shuttles.
[[nodiscard]] FleetWorkload fleet_workload(const std::string& name,
                                           std::uint64_t seed);

/// Run one fleet workload per `opt` and return its result line.
[[nodiscard]] RunResult run_fleet_workload(const FleetWorkload& workload,
                                           const Options& opt);

}  // namespace stbench
