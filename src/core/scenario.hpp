// Scenario harness: assembles a full experiment — deployment, mobility,
// radio environment, protocol under test, metric sampling — runs it, and
// returns everything the benches and examples report.
//
// This is the only layer that touches ground truth: it samples the true
// best beam pair towards the tracked neighbour on a fixed cadence and
// scores the protocol's beam against it (the Fig. 2c alignment
// criterion), and it stamps each completed handover with whether the
// final beam was within 3 dB of the best available.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/reactive_handover.hpp"
#include "core/scenario_spec.hpp"
#include "core/silent_tracker.hpp"
#include "net/deployment.hpp"
#include "net/environment.hpp"
#include "net/handover.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sim/cancel.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace st::core {

struct ScenarioResult {
  std::vector<net::HandoverRecord> handovers;

  /// Ground-truth-scored series, sampled every metric_period while a
  /// neighbour is being tracked:
  sim::TimeSeries neighbour_tracked_rss_dbm;  ///< what the tracked pair gets
  sim::TimeSeries neighbour_best_rss_dbm;     ///< what the best pair would get
  sim::TimeSeries alignment_gap_db;           ///< best − tracked (>= ~0)
  sim::TimeSeries serving_snr_db;             ///< serving link health

  /// Protocol event counts (always populated).
  obs::ProtocolCounters counters;

  /// Typed trace (null unless collect_trace was set); the run's story is
  /// obs::render_narrative(*trace). shared_ptr so results stay copyable
  /// for the repetition-merging experiment code.
  std::shared_ptr<obs::TraceRecorder> trace;

  /// Engine runtime statistics (always populated).
  sim::EngineStats engine;
  /// Phy snapshot-cache statistics (always populated).
  net::SnapshotCacheStats snapshot_cache;

  /// Radio measurement budget spent: total SSB listening attempts over
  /// the run (the paper's "minimal resource usage" axis).
  std::uint64_t ssb_observations = 0;

  /// Throughput/SINR/outage totals from the rate layer (all zero when
  /// spec.rate.enabled is false). Observer-only: populated from the same
  /// metric ticks as the series above, never fed back into the protocol.
  rate::RateStats rate;

  /// True when the run was stopped early by a sim::CancelToken; the
  /// series and handover records then cover a consistent prefix of the
  /// schedule (engine.sim_seconds says how far it got).
  bool cancelled = false;

  /// Fraction of tracked samples where the protocol's beam was within
  /// 3 dB of the ground-truth best (the Fig. 2c criterion), over the
  /// whole run.
  [[nodiscard]] double tracking_alignment_fraction() const;

  /// Same criterion restricted to tracking *before the first successful
  /// handover completed* — the paper's exact claim ("till the successful
  /// conclusion of handover"). Falls back to the whole run if no
  /// handover completed.
  [[nodiscard]] double alignment_until_first_handover() const;

  /// Convenience over `handovers`.
  [[nodiscard]] std::size_t soft_handovers() const noexcept;
  [[nodiscard]] std::size_t hard_handovers() const noexcept;
  [[nodiscard]] std::size_t successful_handovers() const noexcept;
};

/// Build the shared deployment of a spec: spec.n_cells cells in the
/// spec.deployment_shape layout, from spec.deployment taken verbatim. No
/// mobility-dependent adjustment is applied (presets encode their
/// geometry explicitly), so every UE of a fleet sees the same sites.
[[nodiscard]] net::Deployment make_deployment(const ScenarioSpec& spec);

/// Build the mobility model of one mobile over a deployment; `root_seed`
/// is the UE's root (fleet_ue_seed), from which the walk's own stream is
/// derived.
[[nodiscard]] std::shared_ptr<const mobility::MobilityModel> make_mobility(
    const ScenarioSpec& spec, const UeProfile& profile, std::uint64_t root_seed,
    const net::Deployment& deployment);

/// Build the complete radio environment of one mobile over a shared
/// deployment: per-UE environment seed and UE id, mobility model, and
/// codebook, exactly as a scenario run constructs it. This is the single
/// recipe behind run_scenario_ue and the fleet batch evaluator
/// (fleet::FleetChannelBatch), so physics queries through either agree
/// bit-for-bit. The horizon is stretched 1 s past spec.duration, matching
/// the scenario engine.
[[nodiscard]] std::unique_ptr<net::RadioEnvironment> make_ue_environment(
    const ScenarioSpec& spec, std::size_t ue,
    const net::Deployment& deployment);

/// Build the UE codebook for the configured beamwidth (<= 0 selects the
/// omni antenna), optionally with physical ULA patterns (real sidelobes).
[[nodiscard]] phy::Codebook make_ue_codebook(double beamwidth_deg,
                                             bool ula = false);

/// Run one mobile of a spec to completion against a caller-provided
/// deployment (the fleet engine builds it once and shares it). The run is
/// deterministic in fleet_ue_seed(spec.seed, ue) alone: the same UE
/// profile run alone in a single-UE spec seeded with that root produces a
/// bit-identical result.
///
/// A non-null `cancel` token is polled between events; once it fires the
/// run stops and returns the partial result (cancelled = true). A null or
/// never-fired token produces the same result, apart from wall-clock
/// stats.
[[nodiscard]] ScenarioResult run_scenario_ue(
    const ScenarioSpec& spec, std::size_t ue,
    const net::Deployment& deployment,
    const sim::CancelToken* cancel = nullptr);

/// As above, building the deployment from the spec.
[[nodiscard]] ScenarioResult run_scenario_ue(const ScenarioSpec& spec,
                                             std::size_t ue);

/// Run a single-mobile spec to completion. Throws std::invalid_argument
/// if the spec holds more than one UE — fleets run through
/// fleet::run_fleet, which aggregates per-UE results.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Assemble the machine-readable run report from a finished result:
/// handover outcomes, engine and snapshot-cache stats, non-zero protocol
/// counters, and latency digests (tracking loop, search, RACH, per-event
/// dispatch) derived from the typed trace when present. `ue`
/// selects which mobile of the spec the result belongs to.
[[nodiscard]] obs::RunReport build_run_report(const ScenarioSpec& spec,
                                              const ScenarioResult& result,
                                              std::size_t ue = 0);

}  // namespace st::core
