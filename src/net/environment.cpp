#include "net/environment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace st::net {

namespace {

/// Longest hold one certificate grants (it also bounds how far the UE can
/// move, and so how much the distances in the bound shrink).
constexpr sim::Duration kMaxHold = sim::Duration::milliseconds(100);

/// Margin withheld from every certificate. It covers the rounding of the
/// computed SNR (the vectorised exp/cos kernels differ from the exact
/// functions at the 1e-12 dB level), so a computed value never undercuts
/// a bound that the exact one obeys.
constexpr double kMarginSlackDb = 1e-6;

/// Rate [rad/s] at which the azimuth towards a fixed point turns for a
/// mover at speed `v` no nearer than `d_h` horizontally; +inf when the
/// mover can reach the point.
double turn_rate(double v, double d_h) noexcept {
  return d_h > 0.0 ? v / d_h : std::numeric_limits<double>::infinity();
}

/// Gain-slope term [dB/s]; a flat pattern contributes nothing however
/// fast the angle turns.
double gain_rate(double slope_db_per_rad, double angle_rate) noexcept {
  return slope_db_per_rad == 0.0 ? 0.0 : slope_db_per_rad * angle_rate;
}

double horizontal_distance(Vec3 a, Vec3 b) noexcept {
  return std::hypot(a.x - b.x, a.y - b.y);
}

}  // namespace

RadioEnvironment::RadioEnvironment(
    const EnvironmentConfig& config, std::vector<BaseStation> base_stations,
    std::shared_ptr<const mobility::MobilityModel> ue_mobility,
    phy::Codebook ue_codebook, std::vector<NeighborList> neighbor_lists)
    : config_(config),
      base_stations_(std::move(base_stations)),
      neighbor_lists_(std::move(neighbor_lists)),
      ue_mobility_(std::move(ue_mobility)),
      ue_codebook_(std::move(ue_codebook)),
      link_(config.link),
      measurement_rng_(derive_seed(config.seed, "measurement")),
      detection_rng_(derive_seed(config.seed, "detection")) {
  if (base_stations_.empty()) {
    throw std::invalid_argument("RadioEnvironment: need at least one cell");
  }
  if (ue_mobility_ == nullptr) {
    throw std::invalid_argument("RadioEnvironment: mobility must not be null");
  }
  if (neighbor_lists_.empty()) {
    // The historical implicit rule: every other cell, in CellId order.
    neighbor_lists_.resize(base_stations_.size());
    for (std::size_t i = 0; i < base_stations_.size(); ++i) {
      for (std::size_t j = 0; j < base_stations_.size(); ++j) {
        if (j != i) {
          neighbor_lists_[i].push_back(static_cast<CellId>(j));
        }
      }
    }
  }
  if (neighbor_lists_.size() != base_stations_.size()) {
    throw std::invalid_argument(
        "RadioEnvironment: one neighbour list per cell required");
  }
  for (const NeighborList& list : neighbor_lists_) {
    for (const CellId c : list) {
      if (c >= base_stations_.size()) {
        throw std::invalid_argument(
            "RadioEnvironment: neighbour list names an unknown cell");
      }
    }
  }
  const Pose ue_start = ue_mobility_->pose_at(sim::Time::zero());
  channels_.reserve(base_stations_.size());
  for (const BaseStation& bs : base_stations_) {
    const std::uint64_t link_seed =
        derive_seed(config.seed, "channel/" + std::to_string(bs.id()));
    channels_.push_back(std::make_unique<phy::Channel>(
        config.channel, bs.pose().position, ue_start.position, config.horizon,
        link_seed));
  }
  snapshot_cache_.resize(base_stations_.size());
}

Pose RadioEnvironment::ue_pose(sim::Time t) const {
  if (!pose_memo_valid_ || pose_memo_t_ != t) {
    pose_memo_ = ue_mobility_->pose_at(t);
    pose_memo_t_ = t;
    pose_memo_valid_ = true;
  }
  return pose_memo_;
}

const phy::PathSnapshot& RadioEnvironment::snapshot_for(CellId cell,
                                                        sim::Time t) const {
  const BaseStation& station = base_stations_[cell];
  return snapshot_cache_.fill(
      config_.ue, cell, t,
      [&](phy::PathSnapshot& snapshot, phy::SnapshotReuse& reuse) {
        channels_[cell]->update_snapshot(station.pose(), ue_pose(t), t,
                                         station.tx_power_dbm(), snapshot,
                                         &reuse, &build_stats_);
      });
}

const NeighborList& RadioEnvironment::neighbour_cells(CellId cell) const {
  if (cell >= neighbor_lists_.size()) {
    throw std::out_of_range(
        "RadioEnvironment::neighbour_cells: invalid cell id");
  }
  return neighbor_lists_[cell];
}

const BaseStation& RadioEnvironment::bs(CellId cell) const {
  if (cell >= base_stations_.size()) {
    throw std::out_of_range("RadioEnvironment::bs: invalid cell id");
  }
  return base_stations_[cell];
}

BaseStation& RadioEnvironment::bs_mutable(CellId cell) {
  if (cell >= base_stations_.size()) {
    throw std::out_of_range("RadioEnvironment::bs_mutable: invalid cell id");
  }
  return base_stations_[cell];
}

const phy::Channel& RadioEnvironment::channel(CellId cell) const {
  if (cell >= channels_.size()) {
    throw std::out_of_range("RadioEnvironment::channel: invalid cell id");
  }
  return *channels_[cell];
}

double RadioEnvironment::true_dl_rss_dbm(CellId cell, phy::BeamId tx_beam,
                                         phy::BeamId ue_beam, sim::Time t) const {
  const BaseStation& station = bs(cell);
  return phy::snapshot_rx_power_dbm(snapshot_for(cell, t),
                                    station.codebook().beam(tx_beam),
                                    ue_codebook_.beam(ue_beam));
}

sim::Time RadioEnvironment::certified_hold_until(CellId cell,
                                                 phy::BeamId tx_beam,
                                                 phy::BeamId ue_beam,
                                                 sim::Time t0,
                                                 double margin_db) const {
  const phy::Channel& link = channel(cell);
  const double margin = margin_db - kMarginSlackDb;
  const BaseStation& station = bs(cell);
  const Quaternion& bs_orientation = station.pose().orientation;
  if (link.coherent() || !(margin > 0.0) || bs_orientation.x != 0.0 ||
      bs_orientation.y != 0.0) {
    return t0;  // phases, no margin, or a tilted BS: nothing to certify
  }
  const double tx_slope =
      station.codebook().beam(tx_beam).pattern().max_db_slope_per_rad();
  const double rx_slope =
      ue_codebook_.beam(ue_beam).pattern().max_db_slope_per_rad();
  if (!std::isfinite(tx_slope) || !std::isfinite(rx_slope)) {
    return t0;
  }
  const mobility::MotionBound motion = ue_mobility_->motion_bound(t0);
  const sim::Time block_until = link.blockage().window(t0).until;
  const sim::Time cap = std::min({t0 + kMaxHold, motion.until, block_until});
  if (cap - t0 <= sim::Duration::nanoseconds(1)) {
    return t0;  // a blockage ramp, or a mobility certificate at its end
  }

  const double v = motion.v_max_mps;
  const double yaw_rate = motion.yaw_rate_max_rad_per_s;
  const double span_s = (cap - t0).seconds();
  const double shrink = v * span_s;
  const Vec3 tx = station.pose().position;
  const Vec3 rx = ue_pose(t0).position;
  const phy::PathLoss& pathloss = link.pathloss();
  const double shadow_slope = link.shadowing().gradient_bound_db_per_m();

  // One path's |d dB/dt| bound: length-driven terms plus both gain terms.
  const auto path_rate = [&](double length_m, double tx_turn, double rx_turn) {
    const double pl_slope = pathloss.max_slope_db_per_m(length_m - shrink);
    return v * (pl_slope + shadow_slope) + gain_rate(tx_slope, tx_turn) +
           gain_rate(rx_slope, rx_turn);
  };
  const double los_turn = turn_rate(v, horizontal_distance(tx, rx) - shrink);
  double rate = path_rate(distance(tx, rx), los_turn, yaw_rate + los_turn);
  for (const phy::MultipathGeometry::Reflector& r :
       link.multipath().reflectors()) {
    const double arrival_turn =
        yaw_rate + turn_rate(v, horizontal_distance(r.point, rx) - shrink);
    const double length = distance(tx, r.point) + distance(r.point, rx);
    rate = std::max(rate, path_rate(length, 0.0, arrival_turn));
  }
  if (!(rate < std::numeric_limits<double>::infinity())) {
    return t0;
  }
  const double hold_s = rate > 0.0 ? std::min(margin / rate, span_s) : span_s;
  return t0 + sim::Duration::seconds_of(hold_s);
}

double RadioEnvironment::interference_dbm(CellId wanted, phy::BeamId ue_beam,
                                          sim::Time t) const {
  double linear_mw = 0.0;
  for (const BaseStation& other : base_stations_) {
    if (other.id() == wanted) {
      continue;
    }
    const auto slot = other.schedule().ssb_at(t);
    if (!slot.has_value()) {
      continue;
    }
    linear_mw +=
        from_db(true_dl_rss_dbm(other.id(), slot->tx_beam, ue_beam, t));
  }
  if (linear_mw <= 0.0) {
    return -300.0;  // effectively no interference
  }
  return to_db(linear_mw);
}

double RadioEnvironment::ssb_sinr_db(CellId cell, double true_rss_dbm,
                                     phy::BeamId ue_beam, sim::Time t) const {
  if (!config_.enable_interference) {
    return link_.snr_db(true_rss_dbm);
  }
  const double noise_mw = from_db(link_.noise_floor_dbm());
  const double interference_mw =
      from_db(interference_dbm(cell, ue_beam, t));
  return true_rss_dbm - to_db(noise_mw + interference_mw);
}

SsbObservation RadioEnvironment::observe_ssb(CellId cell, phy::BeamId tx_beam,
                                             phy::BeamId rx_beam, sim::Time t) {
  ++ssb_observations_;
  const double true_rss = true_dl_rss_dbm(cell, tx_beam, rx_beam, t);
  const double true_sinr = ssb_sinr_db(cell, true_rss, rx_beam, t);

  SsbObservation obs;
  obs.t = t;
  obs.cell = cell;
  obs.tx_beam = tx_beam;
  obs.rx_beam = rx_beam;
  obs.detected = link_.detect(true_sinr, detection_rng_);
  if (obs.detected) {
    obs.rss_dbm = config_.measurement.apply(true_rss, measurement_rng_);
    obs.snr_db = link_.snr_db(obs.rss_dbm);
  }
  return obs;
}

double RadioEnvironment::measure_link_rss_dbm(CellId cell, phy::BeamId tx_beam,
                                              phy::BeamId rx_beam,
                                              sim::Time t) {
  const double true_rss = true_dl_rss_dbm(cell, tx_beam, rx_beam, t);
  if (link_.snr_db(true_rss) < -10.0) {
    // Below any usable estimation SNR the modem reports the floor.
    return link_.noise_floor_dbm();
  }
  return config_.measurement.apply(true_rss, measurement_rng_);
}

bool RadioEnvironment::uplink_success(CellId cell, phy::BeamId ue_beam,
                                      phy::BeamId bs_beam, sim::Time t,
                                      double extra_power_db) {
  // TDD reciprocity: the downlink expression with beam roles swapped gives
  // the uplink received power at the base station. The cached snapshot is
  // built with the cell's DL tx power; since every path scales equally
  // with tx power, the UE-power uplink result is the DL result shifted by
  // the power delta in dB.
  const BaseStation& station = bs(cell);
  const double power_delta_db =
      config_.ue_tx_power_dbm + extra_power_db - station.tx_power_dbm();
  const double rx_at_bs =
      phy::snapshot_rx_power_dbm(snapshot_for(cell, t),
                                 station.codebook().beam(bs_beam),
                                 ue_codebook_.beam(ue_beam)) +
      power_delta_db;
  return link_.detect(link_.snr_db(rx_at_bs), detection_rng_);
}

bool RadioEnvironment::downlink_success(CellId cell, phy::BeamId bs_beam,
                                        phy::BeamId ue_beam, sim::Time t) {
  const double rss = true_dl_rss_dbm(cell, bs_beam, ue_beam, t);
  return link_.detect(link_.snr_db(rss), detection_rng_);
}

double RadioEnvironment::true_dl_snr_db(CellId cell, phy::BeamId tx_beam,
                                        phy::BeamId ue_beam, sim::Time t) const {
  return link_.snr_db(true_dl_rss_dbm(cell, tx_beam, ue_beam, t));
}

phy::Channel::BestPair RadioEnvironment::ground_truth_best_pair(CellId cell,
                                                                sim::Time t) const {
  const BaseStation& station = bs(cell);
  ++snapshot_stats_.pair_sweeps;
  return phy::sweep_beam_pairs(snapshot_for(cell, t), station.codebook(),
                               ue_codebook_);
}

phy::Channel::BestBeam RadioEnvironment::ground_truth_best_rx(
    CellId cell, phy::BeamId tx_beam, sim::Time t) const {
  const BaseStation& station = bs(cell);
  ++snapshot_stats_.rx_sweeps;
  return phy::sweep_rx_beams(snapshot_for(cell, t),
                             station.codebook().beam(tx_beam), ue_codebook_);
}

}  // namespace st::net
