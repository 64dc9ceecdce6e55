// The radio environment: base stations, the mobile's pose over time, and
// one composed channel per (base station, mobile) link.
//
// This is the boundary between the simulated physics and the protocols:
//  * protocols may call observe_ssb() (a measurement with estimation
//    noise and a detection draw) and the message-success methods — the
//    exact quantities a real mobile/base station can obtain in-band;
//  * the metric layer may additionally call the ground-truth methods
//    (true best beams) to *score* alignment; protocol code must not.
//
// Uplink transmissions reuse the downlink channel with the beam roles
// swapped (TDD channel reciprocity — also the assumption that lets the
// mobile transmit its RACH preamble on the receive beam it tracked).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "mobility/model.hpp"
#include "net/basestation.hpp"
#include "net/ids.hpp"
#include "net/observation.hpp"
#include "phy/channel.hpp"
#include "phy/link.hpp"
#include "phy/path_snapshot.hpp"
#include "phy/snapshot_cache.hpp"

namespace st::net {

struct EnvironmentConfig {
  phy::ChannelConfig channel{};
  phy::LinkBudgetConfig link{.noise_figure_db = 10.0};
  phy::MeasurementNoise measurement{};
  double ue_tx_power_dbm = 15.0;
  sim::Duration horizon = sim::Duration::milliseconds(60'000);
  /// Model co-channel interference: cells transmitting an SSB at the same
  /// instant degrade each other's detection (SINR instead of SNR). The
  /// staggered default schedules rarely collide, but synchronised
  /// deployments do — the reason NR staggers neighbour SSBs in time.
  bool enable_interference = true;
  std::uint64_t seed = 1;
  /// Identity of the mobile this environment belongs to. Each UE of a
  /// fleet owns its own RadioEnvironment (base-station copies, channels,
  /// RNG streams); the id keys the snapshot epoch cache so per-UE
  /// shadowing/blockage state can never be served to another mobile.
  UeId ue = 0;
};

/// The snapshot work counters are declared in phy (path_snapshot.hpp),
/// where the cache and the channel count them; net counts its sweeps and
/// certified misses into the same value.
using phy::SnapshotCacheStats;

class RadioEnvironment {
 public:
  /// The UE codebook is fixed per experiment (the paper compares 20°,
  /// 60°, and omni codebooks as configurations, not at runtime).
  /// `neighbor_lists` carries the deployment's per-cell handover
  /// candidate sets (Deployment::neighbor_lists); when empty, every cell
  /// lists every other cell in CellId order — the historical rule.
  RadioEnvironment(const EnvironmentConfig& config,
                   std::vector<BaseStation> base_stations,
                   std::shared_ptr<const mobility::MobilityModel> ue_mobility,
                   phy::Codebook ue_codebook,
                   std::vector<NeighborList> neighbor_lists = {});

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return base_stations_.size();
  }
  /// The handover candidate cells of `cell`, in candidate order. Throws
  /// std::out_of_range on an unknown cell id.
  [[nodiscard]] const NeighborList& neighbour_cells(CellId cell) const;
  [[nodiscard]] const BaseStation& bs(CellId cell) const;
  [[nodiscard]] BaseStation& bs_mutable(CellId cell);
  [[nodiscard]] const phy::Codebook& ue_codebook() const noexcept {
    return ue_codebook_;
  }
  [[nodiscard]] const phy::LinkBudget& link_budget() const noexcept {
    return link_;
  }
  [[nodiscard]] const EnvironmentConfig& config() const noexcept {
    return config_;
  }

  /// The mobile's pose at `t`. Memoised on the last instant asked for:
  /// pose_at is a pure function of t (see phy/snapshot_cache.hpp), and a
  /// metric tick asks for the same instant once per cell it refreshes.
  [[nodiscard]] Pose ue_pose(sim::Time t) const;

  // ---- In-band interface (protocols) -----------------------------------

  /// One SSB listening attempt: cell `cell` transmits its SSB on
  /// `tx_beam`; the mobile listens on `rx_beam`. Detection is a Bernoulli
  /// draw on the true SINR; the reported RSS carries estimation noise.
  ///
  /// Certified miss: when the cell's cached snapshot is from an earlier
  /// instant t0 and the slope bound of certified_hold_until proves
  /// 0 < p <= p_hi < 1 for the detection probability p at `t`, the
  /// detection uniform u is drawn first. u >= p_hi settles the attempt as
  /// undetected without refreshing any snapshot; otherwise the exact
  /// SINR is evaluated and compared with that same u. Rng::bernoulli
  /// draws exactly one uniform when 0 < p < 1 and returns u < p, so the
  /// result and both RNG streams are those of the exact evaluation.
  [[nodiscard]] SsbObservation observe_ssb(CellId cell, phy::BeamId tx_beam,
                                           phy::BeamId rx_beam, sim::Time t);

  /// Success draw for one uplink control message (RACH preamble, Msg3,
  /// beam-switch request) sent with the UE beam `ue_beam` while the BS
  /// listens on `bs_beam`. `extra_power_db` models RACH power ramping.
  [[nodiscard]] bool uplink_success(CellId cell, phy::BeamId ue_beam,
                                    phy::BeamId bs_beam, sim::Time t,
                                    double extra_power_db = 0.0);

  /// Success draw for one downlink control message (RAR, Msg4).
  [[nodiscard]] bool downlink_success(CellId cell, phy::BeamId bs_beam,
                                      phy::BeamId ue_beam, sim::Time t);

  /// True downlink SNR of a beam pair — used by the link monitor as the
  /// physical condition of the data link (a real modem experiences this
  /// as decoded/not-decoded transport blocks).
  [[nodiscard]] double true_dl_snr_db(CellId cell, phy::BeamId tx_beam,
                                      phy::BeamId ue_beam, sim::Time t) const;

  /// true_dl_snr_db for an invariant checker's leg: counted as the one
  /// snapshot query it is, but every cached snapshot is put back
  /// afterwards. Certified misses read the cached instant, so a checked
  /// run then decides its fast paths exactly as an unchecked run does.
  [[nodiscard]] double checker_dl_snr_db(CellId cell, phy::BeamId tx_beam,
                                         phy::BeamId ue_beam,
                                         sim::Time t) const;

  /// Certified hold of a healthy link — the link monitor's skip rule.
  /// Returns an instant `hold` such that for every t in [t0, hold) the
  /// true DL SNR of (cell, tx_beam, ue_beam) stays within `margin_db` of
  /// its value at t0. The bound S on |dSNR/dt| [dB/s] is the largest, over
  /// the paths, of
  ///   v*(path-loss slope + shadowing gradient)
  ///     + tx-pattern slope * departure-angle rate
  ///     + rx-pattern slope * arrival-angle rate,
  /// because the dB slope of an incoherent power sum is a power-weighted
  /// average of the path slopes. `v` and the yaw rate come from the UE
  /// mobility's MotionBound. The LOS departure and arrival angles turn at
  /// most v/d_h (plus the yaw rate at the UE); a reflected path leaves the
  /// fixed BS towards a fixed reflector, so only its arrival turns. The
  /// horizontal distances d_h and the path lengths are shrunk by the
  /// distance the UE can cover before the hold ends. `hold` is capped at
  /// 100 ms, the mobility certificate and the blockage window. No
  /// certificate (`t0`) for coherent combining, beam patterns without a
  /// finite slope bound (ULA), uncertified mobility, a blockage ramp, or
  /// a BS whose orientation is not a pure yaw.
  [[nodiscard]] sim::Time certified_hold_until(CellId cell, phy::BeamId tx_beam,
                                               phy::BeamId ue_beam,
                                               sim::Time t0,
                                               double margin_db) const;

  /// Interference power [dBm] arriving at the mobile's beam `ue_beam` at
  /// time `t` from every cell other than `wanted` that is transmitting an
  /// SSB at that instant; -inf-like floor when nothing interferes.
  [[nodiscard]] double interference_dbm(CellId wanted, phy::BeamId ue_beam,
                                        sim::Time t) const;

  /// Total SSB listening attempts made so far (every observe_ssb call):
  /// the mobile's radio measurement budget, the resource §2 of the paper
  /// says must be spent sparingly. Protocol policies are compared on it.
  [[nodiscard]] std::uint64_t ssb_observation_count() const noexcept {
    return ssb_observations_;
  }

  /// Snapshot-cache hit/miss/invalidation, build and sweep-kernel counts —
  /// the measured basis for the fast-path claims in docs/PERFORMANCE.md.
  /// One value, held by the epoch cache and counted into by the cache,
  /// the channels' builds and this environment's sweeps and certified
  /// misses.
  [[nodiscard]] const SnapshotCacheStats& snapshot_stats() const noexcept {
    return snapshot_cache_.stats();
  }

  // ---- Ground truth (metric layer only) ---------------------------------

  [[nodiscard]] phy::Channel::BestPair ground_truth_best_pair(CellId cell,
                                                              sim::Time t) const;
  [[nodiscard]] phy::Channel::BestBeam ground_truth_best_rx(CellId cell,
                                                            phy::BeamId tx_beam,
                                                            sim::Time t) const;
  [[nodiscard]] const phy::Channel& channel(CellId cell) const;

 private:
  [[nodiscard]] double true_dl_rss_dbm(CellId cell, phy::BeamId tx_beam,
                                       phy::BeamId ue_beam, sim::Time t) const;

  /// Beam-independent terms of the slope bound of one cell from `t0`,
  /// per path (LOS first, then the reflectors). They hold over
  /// [t0, until); until == t0 means nothing can be certified from t0.
  struct SlopeTerms {
    struct Path {
      double length_rate;     ///< v*(path-loss slope + shadowing gradient)
                              ///< [dB/s]
      double departure_turn;  ///< [rad/s]
      double arrival_turn;    ///< [rad/s]
    };
    bool valid = false;
    sim::Time t0;
    sim::Time until;
    std::vector<Path> paths;
  };

  /// The slope terms of `cell` from `t0`, memoised per cell on t0: the
  /// link monitor asks at the instant it just evaluated, observe_ssb at
  /// the instant of the cached snapshot, so they are recomputed only when
  /// that instant moves.
  [[nodiscard]] const SlopeTerms& slope_terms(CellId cell, sim::Time t0) const;

  /// Bound S [dB/s] on |d rx power/dt| of (cell, tx_beam, ue_beam) over
  /// the interval of `terms`; +inf when a beam pattern has no finite
  /// slope bound.
  [[nodiscard]] double rate_bound(const SlopeTerms& terms, CellId cell,
                                  phy::BeamId tx_beam,
                                  phy::BeamId ue_beam) const;

  /// p_hi of a certified miss (see observe_ssb) for an SSB of (cell,
  /// tx_beam) on `ue_beam` at `t`: an upper bound on the detection
  /// probability, proven with 0 < p <= p_hi < 1. Returns 1 when nothing is
  /// proven (the exact path then runs with its usual draw).
  [[nodiscard]] double certified_detection_bound(CellId cell,
                                                 phy::BeamId tx_beam,
                                                 phy::BeamId ue_beam,
                                                 sim::Time t) const;

  /// The exact SSB detection probability for the certified-miss checker
  /// leg, entirely off the record: the snapshot cache and every counter
  /// are restored afterwards, so a checked run's counters differ from an
  /// unchecked run's by the link monitor's leg alone.
  [[nodiscard]] double checker_detection_probability(CellId cell,
                                                     phy::BeamId tx_beam,
                                                     phy::BeamId ue_beam,
                                                     sim::Time t) const;

  /// Path snapshot for (config.ue, cell, t), served from the phy-layer
  /// epoch cache (one entry per cell, keyed on UE id and time; see
  /// phy/snapshot_cache.hpp for the validity rule). The metric tick and
  /// protocol callbacks firing at the same instant therefore share one
  /// snapshot per cell. Snapshots are built with the cell's DL tx power;
  /// uplink reuses them by adding the tx-power delta in dB (every path
  /// scales equally).
  [[nodiscard]] const phy::PathSnapshot& snapshot_for(CellId cell,
                                                      sim::Time t) const;

  /// SINR [dB] for an SSB of `cell` received on `ue_beam`: signal against
  /// thermal noise plus any concurrent SSB transmissions of other cells.
  [[nodiscard]] double ssb_sinr_db(CellId cell, double true_rss_dbm,
                                   phy::BeamId ue_beam, sim::Time t) const;

  EnvironmentConfig config_;
  std::vector<BaseStation> base_stations_;
  std::vector<NeighborList> neighbor_lists_;
  std::shared_ptr<const mobility::MobilityModel> ue_mobility_;
  phy::Codebook ue_codebook_;
  phy::LinkBudget link_;
  std::vector<std::unique_ptr<phy::Channel>> channels_;  // one per cell

  /// Mutable because ground-truth queries are const. Not synchronised: a
  /// RadioEnvironment is single-threaded by design (parallel batch and
  /// fleet runs give each thread its own environment). It also holds the
  /// environment's snapshot work counters (snapshot_stats()).
  mutable phy::SnapshotEpochCache snapshot_cache_;
  /// Per-cell memo of slope_terms.
  mutable std::vector<SlopeTerms> slope_terms_;
  /// Smallest true RSS [dBm] whose SSB detection probability is provably
  /// positive whatever the interference: below it the logistic's exp may
  /// overflow to p == 0, where Rng::bernoulli draws nothing.
  double min_certifiable_rss_dbm_ = 0.0;
  /// ue_pose memo: the pose at pose_memo_t_, when pose_memo_valid_.
  mutable bool pose_memo_valid_ = false;
  mutable sim::Time pose_memo_t_;
  mutable Pose pose_memo_;

  Rng measurement_rng_;
  Rng detection_rng_;
  std::uint64_t ssb_observations_ = 0;
};

namespace invariants {

/// An observation settled as a certified miss must really miss: the
/// detection probability `p` evaluated exactly at that instant lies in
/// (0, 1), so Rng::bernoulli would have drawn, and the drawn uniform `u`
/// is at or above it. Throws contracts::ContractViolation otherwise.
/// Wired in as ST_INVARIANT, so it runs (and costs the exact evaluation)
/// only in -DST_CHECK_INVARIANTS=ON builds.
void check_certified_miss(double u, double p, CellId cell, sim::Time t);

/// A certificate whose draw did not settle a miss: the exact evaluation
/// then compares the same u with `p`, which is what Rng::bernoulli does
/// only when p lies in (0, 1). Throws otherwise; ST_INVARIANT-wired too.
void check_certified_draw(double p, CellId cell, sim::Time t);

}  // namespace invariants

}  // namespace st::net
