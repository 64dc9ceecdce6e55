#include "net/environment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "common/logging.hpp"

namespace st::net {

namespace {

/// Longest interval one slope bound covers, for a hold or a certified
/// miss (it also bounds how far the UE can move, and so how much the
/// distances in the bound shrink).
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

double peak_gain_dbi(const phy::Codebook& codebook) {
  double peak = -std::numeric_limits<double>::infinity();
  for (phy::BeamId b = 0; b < codebook.size(); ++b) {
    peak = std::max(peak, codebook.beam(b).pattern().peak_gain_dbi());
  }
  return peak;
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
  slope_terms_.resize(base_stations_.size());

  // Floor of a certified miss. The detection probability 1/(1 + exp(-x)),
  // x = slope * (SINR - threshold), is positive while exp(-x) is finite,
  // in particular for x >= -700 (exp(700) ~ 1e304). SINR >= RSS minus
  // (noise + interference) in dB, and the interference is capped by every
  // cell at once, each path at its peak: TX power + both peak gains - the
  // 1 m path loss (the least any path loses) + the shadowing amplitude
  // bound, less the smallest reflection loss on reflected paths. That is
  // an incoherent sum; coherent channels never certify. The margin to any
  // real link is hundreds of dB, far beyond the rounding of this cap.
  const phy::LinkBudgetConfig& budget = link_.config();
  const double min_sinr_db = budget.detection_threshold_snr_db -
                             700.0 / budget.detection_slope_per_db;
  double noise_and_interference_dbm = link_.noise_floor_dbm();
  if (config_.enable_interference) {
    const double ue_peak_dbi = peak_gain_dbi(ue_codebook_);
    double noise_and_cap_mw = from_db(link_.noise_floor_dbm());
    for (std::size_t i = 0; i < base_stations_.size(); ++i) {
      const phy::Channel& link = *channels_[i];
      const double los_dbm = base_stations_[i].tx_power_dbm() +
                             peak_gain_dbi(base_stations_[i].codebook()) +
                             ue_peak_dbi - link.pathloss().loss_db(1.0) +
                             link.shadowing().amplitude_bound_db();
      double min_reflection_loss_db = std::numeric_limits<double>::infinity();
      for (const auto& r : link.multipath().reflectors()) {
        min_reflection_loss_db = std::min(min_reflection_loss_db, r.loss_db);
      }
      const auto reflectors =
          static_cast<double>(link.multipath().reflectors().size());
      noise_and_cap_mw += from_db(los_dbm) *
                          (1.0 + reflectors * from_db(-min_reflection_loss_db));
    }
    noise_and_interference_dbm = to_db(noise_and_cap_mw);
  }
  min_certifiable_rss_dbm_ =
      link_.detection_probability(min_sinr_db) > 0.0
          ? min_sinr_db + noise_and_interference_dbm
          : std::numeric_limits<double>::infinity();
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
                                         &reuse, &snapshot_cache_.stats());
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

const RadioEnvironment::SlopeTerms& RadioEnvironment::slope_terms(
    CellId cell, sim::Time t0) const {
  const BaseStation& station = bs(cell);
  SlopeTerms& terms = slope_terms_[cell];
  if (terms.valid && terms.t0 == t0) {
    return terms;
  }
  terms.t0 = t0;
  terms.until = t0;
  terms.paths.clear();
  terms.valid = true;
  const phy::Channel& link = *channels_[cell];
  const Quaternion& bs_orientation = station.pose().orientation;
  if (link.coherent() || bs_orientation.x != 0.0 || bs_orientation.y != 0.0) {
    return terms;  // phases, or a tilted BS: nothing to certify
  }
  const mobility::MotionBound motion = ue_mobility_->motion_bound(t0);
  const sim::Time cap = std::min(
      {t0 + kMaxHold, motion.until, link.blockage().window(t0).until});
  if (cap - t0 <= sim::Duration::nanoseconds(1)) {
    return terms;  // a blockage ramp, or a mobility certificate at its end
  }
  const double v = motion.v_max_mps;
  const double yaw_rate = motion.yaw_rate_max_rad_per_s;
  const double shrink = v * (cap - t0).seconds();
  const Vec3 tx = station.pose().position;
  // Read the pose memo without replacing it: t0 is usually older than the
  // instant the caller goes on to evaluate.
  const Vec3 rx = pose_memo_valid_ && pose_memo_t_ == t0
                      ? pose_memo_.position
                      : ue_mobility_->pose_at(t0).position;
  const phy::PathLoss& pathloss = link.pathloss();
  const double shadow_slope = link.shadowing().gradient_bound_db_per_m();
  const auto add_path = [&](double length_m, double departure_turn,
                            double arrival_turn) {
    const double pl_slope = pathloss.max_slope_db_per_m(length_m - shrink);
    terms.paths.push_back(
        {v * (pl_slope + shadow_slope), departure_turn, arrival_turn});
  };
  // LOS: departure and arrival both turn; a reflected path leaves the
  // fixed BS towards a fixed reflector, so only its arrival turns.
  const double los_turn = turn_rate(v, horizontal_distance(tx, rx) - shrink);
  add_path(distance(tx, rx), los_turn, yaw_rate + los_turn);
  for (const phy::MultipathGeometry::Reflector& r :
       link.multipath().reflectors()) {
    const double arrival_turn =
        yaw_rate + turn_rate(v, horizontal_distance(r.point, rx) - shrink);
    add_path(distance(tx, r.point) + distance(r.point, rx), 0.0, arrival_turn);
  }
  terms.until = cap;
  return terms;
}

double RadioEnvironment::rate_bound(const SlopeTerms& terms, CellId cell,
                                    phy::BeamId tx_beam,
                                    phy::BeamId ue_beam) const {
  const double tx_slope = base_stations_[cell]
                              .codebook()
                              .beam(tx_beam)
                              .pattern()
                              .max_db_slope_per_rad();
  const double rx_slope =
      ue_codebook_.beam(ue_beam).pattern().max_db_slope_per_rad();
  if (!std::isfinite(tx_slope) || !std::isfinite(rx_slope)) {
    return std::numeric_limits<double>::infinity();
  }
  // Every term is >= 0, so starting from 0 leaves the max unchanged.
  double rate = 0.0;
  for (const SlopeTerms::Path& p : terms.paths) {
    rate = std::max(rate, p.length_rate +
                              gain_rate(tx_slope, p.departure_turn) +
                              gain_rate(rx_slope, p.arrival_turn));
  }
  return rate;
}

sim::Time RadioEnvironment::certified_hold_until(CellId cell,
                                                 phy::BeamId tx_beam,
                                                 phy::BeamId ue_beam,
                                                 sim::Time t0,
                                                 double margin_db) const {
  const double margin = margin_db - kMarginSlackDb;
  if (!(margin > 0.0)) {
    return t0;
  }
  const SlopeTerms& terms = slope_terms(cell, t0);
  if (terms.until == t0) {
    return t0;
  }
  const double rate = rate_bound(terms, cell, tx_beam, ue_beam);
  if (!(rate < std::numeric_limits<double>::infinity())) {
    return t0;
  }
  const double span_s = (terms.until - t0).seconds();
  const double hold_s = rate > 0.0 ? std::min(margin / rate, span_s) : span_s;
  return t0 + sim::Duration::seconds_of(hold_s);
}

double RadioEnvironment::certified_detection_bound(CellId cell,
                                                   phy::BeamId tx_beam,
                                                   phy::BeamId ue_beam,
                                                   sim::Time t) const {
  const BaseStation& station = bs(cell);
  sim::Time t0;
  const phy::PathSnapshot* snapshot =
      snapshot_cache_.cached(config_.ue, cell, &t0);
  if (snapshot == nullptr || !(t0 < t)) {
    return 1.0;  // nothing cached yet, or a hit: the exact path is cheap
  }
  const SlopeTerms& terms = slope_terms(cell, t0);
  if (!(t < terms.until)) {
    return 1.0;  // no certificate from t0, or t past its end
  }
  const double rate = rate_bound(terms, cell, tx_beam, ue_beam);
  if (!(rate < std::numeric_limits<double>::infinity())) {
    return 1.0;
  }
  // |rss(t) - rss(t0)| <= rate * (t - t0); the slack covers the rounding
  // of both evaluations, and SINR <= SNR.
  const double rss0 = phy::snapshot_rx_power_dbm(
      *snapshot, station.codebook().beam(tx_beam), ue_codebook_.beam(ue_beam));
  const double drift = rate * (t - t0).seconds() + kMarginSlackDb;
  if (!(rss0 - drift >= min_certifiable_rss_dbm_)) {
    return 1.0;  // p > 0 not proven: the exact path might not draw
  }
  return link_.detection_probability(link_.snr_db(rss0 + drift));
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
  SsbObservation obs;
  obs.t = t;
  obs.cell = cell;
  obs.tx_beam = tx_beam;
  obs.rx_beam = rx_beam;

  // A certificate proves 0 < p <= p_hi < 1, so Rng::bernoulli(p) would
  // draw exactly one uniform u and return u < p: take u now.
  const double p_hi = certified_detection_bound(cell, tx_beam, rx_beam, t);
  const bool drawn = p_hi < 1.0;
  const double u = drawn ? detection_rng_.uniform() : 0.0;
  if (drawn && u >= p_hi) {
    ++snapshot_cache_.stats().certified_misses;
    ST_INVARIANT(invariants::check_certified_miss(
        u, checker_detection_probability(cell, tx_beam, rx_beam, t), cell,
        t));
    return obs;
  }

  const double true_rss = true_dl_rss_dbm(cell, tx_beam, rx_beam, t);
  const double true_sinr = ssb_sinr_db(cell, true_rss, rx_beam, t);
  if (drawn) {
    const double p = link_.detection_probability(true_sinr);
    ST_INVARIANT(invariants::check_certified_draw(p, cell, t));
    obs.detected = u < p;
  } else {
    obs.detected = link_.detect(true_sinr, detection_rng_);
  }
  if (obs.detected) {
    obs.rss_dbm = config_.measurement.apply(true_rss, measurement_rng_);
    obs.snr_db = link_.snr_db(obs.rss_dbm);
  }
  return obs;
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

double RadioEnvironment::checker_dl_snr_db(CellId cell, phy::BeamId tx_beam,
                                           phy::BeamId ue_beam,
                                           sim::Time t) const {
  phy::SnapshotEpochCache::State saved = snapshot_cache_.save();
  const double snr = true_dl_snr_db(cell, tx_beam, ue_beam, t);
  saved.stats = snapshot_cache_.stats();  // the query and its build count
  snapshot_cache_.restore(std::move(saved));
  return snr;
}

double RadioEnvironment::checker_detection_probability(CellId cell,
                                                       phy::BeamId tx_beam,
                                                       phy::BeamId ue_beam,
                                                       sim::Time t) const {
  phy::SnapshotEpochCache::State saved = snapshot_cache_.save();
  const double p = link_.detection_probability(ssb_sinr_db(
      cell, true_dl_rss_dbm(cell, tx_beam, ue_beam, t), ue_beam, t));
  snapshot_cache_.restore(std::move(saved));
  return p;
}

phy::Channel::BestPair RadioEnvironment::ground_truth_best_pair(CellId cell,
                                                                sim::Time t) const {
  const BaseStation& station = bs(cell);
  ++snapshot_cache_.stats().pair_sweeps;
  return phy::sweep_beam_pairs(snapshot_for(cell, t), station.codebook(),
                               ue_codebook_);
}

phy::Channel::BestBeam RadioEnvironment::ground_truth_best_rx(
    CellId cell, phy::BeamId tx_beam, sim::Time t) const {
  const BaseStation& station = bs(cell);
  ++snapshot_cache_.stats().rx_sweeps;
  return phy::sweep_rx_beams(snapshot_for(cell, t),
                             station.codebook().beam(tx_beam), ue_codebook_);
}

namespace invariants {

void check_certified_draw(double p, CellId cell, sim::Time t) {
  if (!(p > 0.0 && p < 1.0)) {
    contracts::violate(
        "RadioEnvironment",
        log_message("certified SSB draw of cell ", cell, " at ", t.ms(),
                    " ms has detection probability ", p, " outside (0, 1)"));
  }
}

void check_certified_miss(double u, double p, CellId cell, sim::Time t) {
  check_certified_draw(p, cell, t);
  if (u < p) {
    contracts::violate(
        "RadioEnvironment",
        log_message("certified SSB miss of cell ", cell, " at ", t.ms(),
                    " ms drew u = ", u, " below the detection probability ",
                    p));
  }
}

}  // namespace invariants

}  // namespace st::net
