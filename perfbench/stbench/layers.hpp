// Per-layer costs, measured from outside the program: each figure times
// calls into one module's public functions on the workload's own spec,
// deployment and trajectories, or reads an exact count the program
// already reports. emit_layer_metrics() prints the full per-layer set in
// one fixed order, so every workload reports the same names (0 where a
// layer does not apply).
#pragma once

#include <cstdint>
#include <string>

#include "core/scenario_spec.hpp"
#include "fleet/engine.hpp"
#include "stbench/fingerprint.hpp"
#include "stbench/harness.hpp"
#include "stbench/spans.hpp"

namespace stbench {

/// Every per-layer metric. Counts come from FleetTotals; *_ns/*_ms/*_us
/// are medians of timed call loops.
struct LayerReport {
  // sim
  double events_per_ue_s = 0, queue_hwm = 0, dispatch_ns = 0;
  // mobility
  double pose_ns = 0;
  // phy
  double hit_rate = 0, refreshes_per_ue_s = 0, cold_misses = 0,
         incremental_frac = 0, rx_sweeps_per_ue_s = 0, pair_sweeps = 0,
         refresh_ns = 0, sweep_ns = 0, best_rx_ns = 0;
  // net
  double ssb_obs_per_ue_s = 0, observe_ssb_ns = 0, decision_ns = 0,
         handovers_per_ue_s = 0, ping_pong_rate = 0;
  // rate
  double rate_samples = 0, interference_ns = 0;
  // core
  double ue_run_ms_p50 = 0, ue_run_ms_max = 0;
  /// The p99 of the workload's job times (per-UE runs in run_fleet, or
  /// served jobs from due time to `done` frame). Per-layer, not an
  /// end-to-end metric: host stalls of tens of ms move it 2-3x between
  /// runs on a shared host.
  double job_p99_ms = 0;
  double share_sim = 0, share_mobility = 0, share_phy = 0, share_net = 0,
         share_rate = 0;
  // fleet
  double parallel_eff = 0;
  // obs
  double report_ms = 0, report_kb = 0, frames = 0, frames_dropped = 0;
  // serve
  double decode_us = 0, submit_rtt_us_p50 = 0, submit_rtt_us_p99 = 0,
         queue_wait_ms_p50 = 0, queue_wait_ms_p99 = 0, run_ms_p50 = 0,
         run_ms_p99 = 0, e2e_ms_p50 = 0, e2e_ms_p99 = 0,
         delivery_ms_p50 = 0, sched_lag_ms_p99 = 0, shed = 0, failed = 0;
  // host + tracing
  double probe_ms = 0, trace_overhead_frac = 0;
};

/// Time the layer call loops for `spec` and fill the timing fields of
/// `out`; the count fields are filled by fill_layer_counts(). `totals`
/// (of a run of `spec`) sets the instants the environment is queried at;
/// `job_json` is the wire form decoded for serve.decode_us. Spans of each
/// loop are recorded under `parent`.
void measure_layer_costs(const st::core::ScenarioSpec& spec,
                         const FleetTotals& totals, const std::string& job_json,
                         SpanRecorder& spans, std::int64_t parent,
                         LayerReport& out);

/// Exact per-layer counts of one fleet run, normalised per simulated
/// UE-second where the name says so, plus the report-emission cost.
void fill_layer_counts(const st::core::ScenarioSpec& spec,
                       const st::fleet::FleetResult& result,
                       LayerReport& out);

/// Each layer's estimated share of the serial per-UE run time
/// `serial_seconds`: count × ns-per-call ÷ Σ run time.
void fill_share_estimates(const FleetTotals& totals, double serial_seconds,
                          bool decision_on, LayerReport& out);

/// Append every per-layer metric to `result`, in the order BENCHMARK.json
/// lists them.
void emit_layer_metrics(const LayerReport& r, RunResult& result);

/// ns per dispatched event of a sim::Simulator holding `depth` periodic
/// no-op chains (the workload's queue depth).
[[nodiscard]] double time_dispatch_ns(std::size_t depth);

}  // namespace stbench
