// Machine-readable run report: one JSON document per scenario run with
// everything a dashboard or regression script needs — handover outcomes,
// beam-switch counts, alignment fractions, engine runtime stats,
// phy snapshot-cache hit rates, and latency quantiles.
//
// The report is a plain value assembled by core::build_run_report() from
// a finished ScenarioResult; this header only defines the shape, its JSON
// serialisation, and a one-screen human summary used by the examples.
// Run statistics are held in the types of the layers that count them
// (sim::EngineStats, phy::SnapshotCacheStats, rate::RateStats,
// obs::ProtocolCounters), so a new counter is declared once; the derived
// numbers (hit rate, means, wall per sim-second) are computed when the
// report is rendered. Each statistic block has one JSON builder below,
// which the reports, the service and the bench files all share.
// Schema versioned as "silent-tracker/run-report/v1"; consumers should
// check the `schema` field before parsing further.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "phy/path_snapshot.hpp"
#include "rate/rate_model.hpp"
#include "sim/simulator.hpp"

namespace st::obs {

/// Quantile digest of one LogLinearHistogram, small enough to embed.
struct HistogramSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;

  [[nodiscard]] static HistogramSummary from(const LogLinearHistogram& h);
};

/// Which build produced this artifact: st::build_info() plus the
/// *runtime*-selected sweep kernel leg ("avx2" / "scalar").
struct ProvenanceReport {
  std::string git_describe;
  std::string compiler;
  std::string build_type;
  std::string simd_dispatch;

  /// git/compiler/build_type from st::build_info(), simd_dispatch from
  /// phy::simd::mode().
  [[nodiscard]] static ProvenanceReport current();
};

struct HandoverReport {
  std::uint64_t total = 0;
  std::uint64_t successful = 0;
  std::uint64_t soft = 0;
  std::uint64_t hard = 0;
  /// Interruption of the first successful handover; < 0 when none.
  double first_interruption_ms = -1.0;
  /// Mean interruption over successful handovers; 0 when none.
  double mean_interruption_ms = 0.0;
  std::uint64_t rx_beam_switches = 0;  ///< serving + neighbour RX switches
  std::uint64_t tx_beam_switches = 0;  ///< BS switches + neighbour retargets
  double alignment_fraction = 0.0;
  double alignment_until_first_handover = 0.0;
  std::uint64_t ssb_observations = 0;
  /// A→B→A round trips within the ping-pong window, both legs successful
  /// (net::count_ping_pongs).
  std::uint64_t ping_pongs = 0;
};

struct RunReport {
  std::string schema = "silent-tracker/run-report/v1";

  // Scenario echo, so a report is self-describing.
  std::string scenario;
  std::string protocol;
  /// Probe-planning strategy name ("silent_tracker", "hierarchical",
  /// "blind", ...); empty for legacy reports.
  std::string beam_policy;
  std::uint64_t seed = 0;
  double duration_ms = 0.0;
  double ue_beamwidth_deg = 0.0;
  std::uint64_t n_cells = 0;

  ProvenanceReport provenance = ProvenanceReport::current();

  HandoverReport handover;
  /// The rate layer's outcome, what the user experienced; serialised as
  /// the "throughput" and "outage" blocks, only when the layer ran.
  bool rate_enabled = false;
  rate::RateStats rate;
  sim::EngineStats engine;
  phy::SnapshotCacheStats snapshot_cache;
  /// Protocol event counts; the JSON lists those that fired, by name.
  ProtocolCounters counters;
  /// Latency digests: "tracking_loop_ms", "search_ms", "rach_ms",
  /// "engine.dispatch_us", ...
  std::map<std::string, HistogramSummary> latencies;

  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;

  /// Compact JSON document (trailing newline included).
  [[nodiscard]] std::string to_json() const;

  /// One-screen human rendering for the example binaries.
  [[nodiscard]] std::string summary_text() const;
};

/// One row of a fleet report: the headline outcomes of a single mobile.
struct FleetUeReport {
  std::uint64_t ue = 0;
  std::string scenario;
  std::string protocol;
  std::uint64_t seed = 0;  ///< the UE's derived root seed

  std::uint64_t handovers_total = 0;
  std::uint64_t handovers_successful = 0;
  std::uint64_t soft = 0;
  std::uint64_t hard = 0;
  double mean_interruption_ms = 0.0;  ///< over successful handovers; 0 if none
  /// Fig. 2c criterion until the first successful handover; < 0 when the
  /// UE produced no tracking samples (e.g. the reactive baseline).
  double alignment_fraction = -1.0;
  std::uint64_t rach_attempts = 0;
  std::uint64_t ssb_observations = 0;
  std::uint64_t ping_pongs = 0;  ///< A→B→A round trips within the window

  // Rate-layer headline numbers (zero when the layer was disabled).
  double throughput_mbps = 0.0;
  double mean_sinr_db = 0.0;
  std::uint64_t outage_events = 0;
  double outage_ms = 0.0;
};

/// Per-cell view of a fleet run: the configured offered load plus how
/// much handover traffic the cell saw across every mobile.
struct FleetCellReport {
  std::uint64_t cell = 0;
  double load = 0.0;               ///< configured offered load (0..1)
  std::uint64_t handovers_in = 0;  ///< successful handovers into the cell
  std::uint64_t handovers_out = 0; ///< successful handovers out of the cell
  std::uint64_t ping_pongs = 0;    ///< round trips whose far end is this cell
};

/// Fleet-level report: per-UE rows plus the distributions a fleet run is
/// judged on — alignment fractions across UEs, handover interruption
/// across all successful handovers, RACH attempts per handover — and the
/// merged engine/snapshot-cache stats. Schema
/// "silent-tracker/fleet-report/v1"; assembled by fleet::build_fleet_report.
struct FleetReport {
  std::string schema = "silent-tracker/fleet-report/v1";

  std::uint64_t seed = 0;  ///< fleet root seed
  double duration_ms = 0.0;
  std::uint64_t n_cells = 0;
  std::uint64_t n_ues = 0;
  std::uint64_t threads = 1;

  ProvenanceReport provenance = ProvenanceReport::current();

  std::vector<FleetUeReport> ues;

  // Fleet totals.
  std::uint64_t handovers_total = 0;
  std::uint64_t handovers_successful = 0;
  std::uint64_t soft = 0;
  std::uint64_t hard = 0;
  std::uint64_t rach_attempts = 0;
  std::uint64_t ssb_observations = 0;
  std::uint64_t ping_pongs = 0;
  /// Ping-pongs per successful handover (0 when none succeeded).
  double ping_pong_rate = 0.0;

  // Rate-layer fleet totals (zero when the layer was disabled).
  bool rate_enabled = false;
  double mean_throughput_mbps = 0.0;  ///< mean of per-UE means
  double outage_ms_total = 0.0;       ///< summed across UEs
  std::uint64_t outage_events_total = 0;

  /// One row per cell (deployment order); empty when the engine was not
  /// given per-cell data (legacy callers).
  std::vector<FleetCellReport> per_cell;

  // Fleet distributions.
  HistogramSummary alignment_fraction;  ///< across UEs with tracking samples
  HistogramSummary interruption_ms;     ///< across successful handovers
  HistogramSummary rach_attempts_per_handover;
  HistogramSummary throughput_mbps;     ///< across UEs (rate layer on)
  HistogramSummary outage_ms;           ///< across UEs (rate layer on)

  // Merged across UEs.
  sim::EngineStats engine;
  phy::SnapshotCacheStats snapshot_cache;
  /// Protocol event counts; the JSON lists those that fired, by name.
  ProtocolCounters counters;

  // Throughput (non-deterministic; equivalence tests ignore this block).
  double wall_seconds = 0.0;
  double ues_per_second = 0.0;

  /// Compact JSON document (trailing newline included).
  [[nodiscard]] std::string to_json() const;
};

// The one JSON rendering of each statistic block.
[[nodiscard]] json::Value histogram_json(const HistogramSummary& summary);
[[nodiscard]] json::Value provenance_json(const ProvenanceReport& provenance);
[[nodiscard]] json::Value engine_json(const sim::EngineStats& engine);
/// The counts in declaration order, then the derived `hit_rate`.
[[nodiscard]] json::Value snapshot_cache_json(
    const phy::SnapshotCacheStats& cache);
/// The counters that fired, in name order.
[[nodiscard]] json::Value counters_json(const ProtocolCounters& counters);

}  // namespace st::obs
