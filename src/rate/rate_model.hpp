// The throughput/SINR rate layer: per-slot SINR under load-weighted
// inter-cell interference, and per-UE throughput/outage accumulation.
//
// Sits between phy and core: the scenario engine samples the serving
// link's true RSS and every loaded non-serving cell's RSS on its metric
// cadence, feeds them through sinr_db(), and records one sample per tick
// into a RateAccumulator. The queries go through the per-cell path
// snapshot cache and consume no RNG. A protocol event has rarely queried
// a non-serving cell at the tick's instant, so nearly every interference
// term is a snapshot refresh: on a loaded grid, about three quarters of
// all snapshot queries.
// Strictly observer-only: nothing here feeds back into protocol
// decisions, so enabling the rate layer cannot change a run's events.
//
// Interference model: a neighbour cell transmitting data to its own
// users occupies the air for its offered-load fraction of the time, so
// its expected interference contribution at the mobile is
// load_c x 10^(RSS_c/10) mW. Cells with zero load (and the paper's
// presets, which configure no load) contribute nothing — SINR then
// degenerates to SNR exactly.
//
// Outage: a sample is "out" while the mobile has no serving link (the
// handover gap) or its SINR sits strictly below the configured
// threshold; a contiguous out-window shorter than `min_outage` is a
// blip, not an outage. A SINR exactly at the threshold is served.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rate/mcs.hpp"
#include "sim/time.hpp"

namespace st::rate {

struct RateConfig {
  /// Compute and report throughput/outage (observer-only either way).
  bool enabled = true;
  /// Scheduled resource blocks per slot for the single modelled user
  /// (100 MHz carrier at 120 kHz subcarrier spacing -> 66 RBs).
  std::uint32_t n_rb = 66;
  /// Slots per second (120 kHz SCS: 0.125 ms slots).
  double slots_per_second = 8000.0;
  /// Samples strictly below this SINR [dB] are outage candidates. The
  /// default sits at the CQI-1 threshold: below it nothing is
  /// schedulable at all.
  double outage_sinr_db = -5.0;
  /// Shortest below-threshold window that counts as an outage.
  sim::Duration min_outage = sim::Duration::milliseconds(50);
};

/// Load-weighted interference power [mW] from `n` non-serving cells:
/// sum of load[i] x 10^(rss_dbm[i]/10). Summation order is the array
/// order — deterministic, so fleet runs stay bit-identical serial vs
/// parallel (each UE sums its own cells in CellId order).
[[nodiscard]] double interference_mw(const double* rss_dbm,
                                     const double* load,
                                     std::size_t n) noexcept;

/// SINR [dB] of a serving link: `serving_rss_dbm` against thermal noise
/// plus `interference_mw` (from interference_mw() above).
[[nodiscard]] double sinr_db(double serving_rss_dbm, double noise_floor_dbm,
                             double interference_mw) noexcept;

/// Everything one run's rate sampling produces. Plain sums, so fleet
/// aggregation is merge() in UE order — bit-identical serial vs
/// parallel.
struct RateStats {
  std::uint64_t samples = 0;         ///< metric ticks seen
  std::uint64_t served_samples = 0;  ///< ticks with a live serving link
  double bits = 0.0;                 ///< information bits delivered
  double sum_sinr_db = 0.0;          ///< over served samples
  std::uint64_t sum_cqi = 0;         ///< over served samples
  double duration_ms = 0.0;          ///< sampled airtime (set by finish)

  std::uint64_t outage_events = 0;  ///< windows >= min_outage
  double outage_ms = 0.0;           ///< total time inside those windows
  double longest_outage_ms = 0.0;

  [[nodiscard]] double mean_throughput_mbps() const noexcept {
    return duration_ms > 0.0 ? bits / (duration_ms * 1e3) : 0.0;
  }
  [[nodiscard]] double mean_sinr_db() const noexcept {
    return served_samples > 0
               ? sum_sinr_db / static_cast<double>(served_samples)
               : 0.0;
  }
  [[nodiscard]] double mean_cqi() const noexcept {
    return served_samples > 0
               ? static_cast<double>(sum_cqi) /
                     static_cast<double>(served_samples)
               : 0.0;
  }
  [[nodiscard]] double outage_fraction() const noexcept {
    return duration_ms > 0.0 ? outage_ms / duration_ms : 0.0;
  }

  /// Fleet aggregation: sums throughout, longest is the max.
  void merge(const RateStats& other) noexcept;
};

/// Accumulates one mobile's rate samples over a run. Feed one sample
/// per metric tick; each sample stands for `sample_period` of airtime.
/// Call finish() once at end of run to close an open outage window and
/// stamp the sampled duration.
class RateAccumulator {
 public:
  RateAccumulator(const RateConfig& config, sim::Duration sample_period,
                  const McsTable& table = McsTable::nr_default());

  /// One metric tick at `t`: `served` says whether a serving link
  /// existed at all (false during handover gaps); `sinr_db` is ignored
  /// when not served.
  void sample(sim::Time t, double sinr_db, bool served);

  /// Close the run at `end` and return the totals. Idempotent.
  [[nodiscard]] RateStats finish(sim::Time end);

  [[nodiscard]] const RateStats& stats() const noexcept { return stats_; }

 private:
  void close_outage(sim::Time end);

  RateConfig config_;
  sim::Duration sample_period_;
  const McsTable& table_;
  RateStats stats_;
  bool in_outage_ = false;
  sim::Time outage_started_ = sim::Time::zero();
};

}  // namespace st::rate
