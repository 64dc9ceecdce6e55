#include "phy/channel.hpp"

#include <cmath>
#include <complex>
#include <cstring>

#include "common/angles.hpp"
#include "common/units.hpp"
#include "phy/path_snapshot.hpp"

namespace st::phy {

namespace {

/// Scratch snapshot for the pose-based convenience entry points. One per
/// thread so concurrent scenario runs (bench::run_batch) never share
/// state; capacity is retained across calls, so the hot path allocates
/// only on each thread's first use.
PathSnapshot& scratch_snapshot() {
  thread_local PathSnapshot snapshot;
  return snapshot;
}

}  // namespace

Channel::Channel(const ChannelConfig& config, Vec3 tx_anchor, Vec3 rx_anchor,
                 sim::Duration horizon, std::uint64_t seed)
    : coherent_(config.coherent_combining),
      wavelength_m_(wavelength(config.pathloss.carrier_hz)),
      pathloss_(config.pathloss),
      shadowing_(config.shadowing, derive_seed(seed, "shadowing")),
      blockage_(config.blockage, horizon, derive_seed(seed, "blockage")),
      multipath_(config.multipath, tx_anchor, rx_anchor,
                 derive_seed(seed, "multipath")) {}

namespace {

bool same_orientation(const Quaternion& a, const Quaternion& b) noexcept {
  return a.w == b.w && a.x == b.x && a.y == b.y && a.z == b.z;
}

/// Bitwise, not `==`: the azimuth of a direction tells signed zeros apart
/// (atan2(+-0, -1) == +-pi).
bool same_bits(Vec3 a, Vec3 b) noexcept {
  return std::memcmp(&a, &b, sizeof(Vec3)) == 0;
}

}  // namespace

void Channel::make_snapshot(const Pose& tx_pose, const Pose& rx_pose,
                            sim::Time t, double tx_power_dbm,
                            PathSnapshot& out) const {
  update_snapshot(tx_pose, rx_pose, t, tx_power_dbm, out, nullptr, nullptr);
}

void Channel::update_snapshot(const Pose& tx_pose, const Pose& rx_pose,
                              sim::Time t, double tx_power_dbm,
                              PathSnapshot& out, SnapshotReuse* reuse,
                              SnapshotCacheStats* stats) const {
  if (reuse == nullptr) {
    // One-off build through per-thread scratch reuse state, marked cold on
    // both sides so nothing leaks between channels sharing the thread.
    thread_local SnapshotReuse scratch;
    scratch.valid = false;
    update_snapshot(tx_pose, rx_pose, t, tx_power_dbm, out, &scratch, stats);
    scratch.valid = false;
    return;
  }

  SnapshotReuse& r = *reuse;
  const bool warm = r.valid;
  // Cleared for the duration of the build: a throwing component can never
  // leave reuse state describing a half-built snapshot.
  r.valid = false;

  const bool same_tx_pos = warm && r.tx_pose.position == tx_pose.position;
  const bool same_rx_pos = warm && r.rx_pose.position == rx_pose.position;
  const bool geometry_ok = same_tx_pos && same_rx_pos;
  const bool tx_orient_ok =
      warm && same_orientation(r.tx_pose.orientation, tx_pose.orientation);
  const bool rx_orient_ok =
      warm && same_orientation(r.rx_pose.orientation, rx_pose.orientation);

  // Shadowing is a pure function of the RX position.
  const bool shadow_ok = same_rx_pos;
  if (!shadow_ok) {
    r.shadow_db = shadowing_.sample_db(rx_pose.position);
  }

  // Blockage is piecewise constant/linear in t; the cached window tells
  // us exactly how long the last value keeps holding.
  const bool block_ok = warm && r.block_from <= t && t < r.block_until;
  if (!block_ok) {
    const BlockageWindow w = blockage_.window(t);
    r.block_db = w.attenuation_db;
    r.block_from = w.from;
    r.block_until = w.until;
  }

  const std::size_t n = 1 + multipath_.reflectors().size();
  out.coherent = coherent_;
  out.resize(n);

  // Body-frame azimuths: world-frame directions survive any delta that
  // keeps both positions; rotations re-project the cached directions. A
  // moved position re-derives the geometry, but a path whose departure
  // direction came out unchanged keeps its TX azimuth under an unchanged
  // TX orientation — a reflected path leaves the TX towards a fixed
  // reflector, so an RX-only move re-projects only the LOS departure. The
  // cached direction is compared before it is overwritten.
  if (!geometry_ok) {
    r.resize(n);
    std::size_t p = 0;
    multipath_.visit_paths(
        tx_pose.position, rx_pose.position, [&](const PropagationPath& path) {
          const Vec3 departure = path.departure_world;
          if (!(tx_orient_ok && same_bits(r.departure[p], departure))) {
            out.tx_az[p] = tx_pose.to_body_frame(departure).azimuth();
          }
          r.departure[p] = departure;
          r.arrival[p] = path.arrival_world;
          r.length_m[p] = path.length_m;
          r.extra_loss_db[p] = path.extra_loss_db;
          r.path_loss_db[p] = pathloss_.loss_db(path.length_m);
          if (coherent_) {
            const double phase =
                kTwoPi * std::fmod(path.length_m / wavelength_m_, 1.0);
            r.phase_cos[p] = std::cos(phase);
            r.phase_sin[p] = std::sin(phase);
          } else {
            r.phase_cos[p] = 0.0;
            r.phase_sin[p] = 0.0;
          }
          r.is_los[p] = path.is_los ? 1 : 0;
          ++p;
        });
  } else if (!tx_orient_ok) {
    for (std::size_t p = 0; p < n; ++p) {
      out.tx_az[p] = tx_pose.to_body_frame(r.departure[p]).azimuth();
    }
  }
  if (!(geometry_ok && rx_orient_ok)) {
    for (std::size_t p = 0; p < n; ++p) {
      out.rx_az[p] = rx_pose.to_body_frame(r.arrival[p]).azimuth();
    }
  }

  // Base powers and coherent amplitudes: untouched when every input term
  // carried over, recomputed from the cached per-path components
  // otherwise (the arithmetic order matches a from-scratch build exactly,
  // so incremental and full rebuilds stay bit-identical).
  const bool power_ok = warm && r.tx_power_dbm == tx_power_dbm;
  const bool bases_ok = geometry_ok && shadow_ok && block_ok && power_ok;
  if (!bases_ok) {
    for (std::size_t p = 0; p < n; ++p) {
      double base = tx_power_dbm - r.path_loss_db[p] - r.extra_loss_db[p] -
                    r.shadow_db;
      if (r.is_los[p] != 0) {
        base -= r.block_db;
      }
      out.base_db[p] = base;
      out.base_linear[p] = from_db(base);
      if (coherent_) {
        const double amp = std::sqrt(out.base_linear[p]);
        out.amp_cos[p] = amp * r.phase_cos[p];
        out.amp_sin[p] = amp * r.phase_sin[p];
      } else {
        out.amp_cos[p] = 0.0;
        out.amp_sin[p] = 0.0;
      }
    }
  }

  if (stats != nullptr) {
    if (warm) {
      ++stats->incremental_builds;
      stats->geometry_reuses += geometry_ok ? 1 : 0;
      stats->shadow_reuses += shadow_ok ? 1 : 0;
      stats->blockage_reuses += block_ok ? 1 : 0;
      stats->azimuth_reuses +=
          (geometry_ok && tx_orient_ok && rx_orient_ok) ? 1 : 0;
    } else {
      ++stats->full_builds;
    }
  }

  r.tx_pose = tx_pose;
  r.rx_pose = rx_pose;
  r.tx_power_dbm = tx_power_dbm;
  r.valid = true;
}

double Channel::rx_power_dbm(const Pose& tx_pose, const Beam& tx_beam,
                             const Pose& rx_pose, const Beam& rx_beam,
                             sim::Time t, double tx_power_dbm) const {
  PathSnapshot& snapshot = scratch_snapshot();
  make_snapshot(tx_pose, rx_pose, t, tx_power_dbm, snapshot);
  return snapshot_rx_power_dbm(snapshot, tx_beam, rx_beam);
}

Channel::BestPair Channel::best_beam_pair(const Pose& tx_pose,
                                          const Codebook& tx_codebook,
                                          const Pose& rx_pose,
                                          const Codebook& rx_codebook,
                                          sim::Time t, double tx_power_dbm) const {
  PathSnapshot& snapshot = scratch_snapshot();
  make_snapshot(tx_pose, rx_pose, t, tx_power_dbm, snapshot);
  return sweep_beam_pairs(snapshot, tx_codebook, rx_codebook);
}

double Channel::rx_power_dbm_naive(const Pose& tx_pose, const Beam& tx_beam,
                                   const Pose& rx_pose, const Beam& rx_beam,
                                   sim::Time t, double tx_power_dbm) const {
  const double shadow_db = shadowing_.sample_db(rx_pose.position);
  const double block_db = blockage_.attenuation_db(t);

  double sum_linear_mw = 0.0;
  std::complex<double> sum_amplitude{0.0, 0.0};
  for (const PropagationPath& path :
       multipath_.paths(tx_pose.position, rx_pose.position)) {
    const double tx_az = tx_pose.to_body_frame(path.departure_world).azimuth();
    const double rx_az = rx_pose.to_body_frame(path.arrival_world).azimuth();
    double pr_dbm = tx_power_dbm + tx_beam.gain_dbi(tx_az) +
                    rx_beam.gain_dbi(rx_az) - pathloss_.loss_db(path.length_m) -
                    path.extra_loss_db - shadow_db;
    if (path.is_los) {
      pr_dbm -= block_db;
    }
    if (coherent_) {
      // Complex amplitude with the exact geometric phase: small-scale
      // fading and Doppler emerge from the path-length differences.
      const double phase =
          kTwoPi * std::fmod(path.length_m / wavelength_m_, 1.0);
      sum_amplitude += std::sqrt(from_db(pr_dbm)) *
                       std::complex<double>(std::cos(phase), std::sin(phase));
    } else {
      sum_linear_mw += from_db(pr_dbm);
    }
  }
  if (coherent_) {
    return to_db(std::max(std::norm(sum_amplitude), 1e-30));
  }
  return to_db(sum_linear_mw);
}

Channel::BestPair Channel::best_beam_pair_naive(const Pose& tx_pose,
                                                const Codebook& tx_codebook,
                                                const Pose& rx_pose,
                                                const Codebook& rx_codebook,
                                                sim::Time t,
                                                double tx_power_dbm) const {
  BestPair best;
  for (const Beam& tx : tx_codebook.beams()) {
    BestBeam b;
    for (const Beam& candidate : rx_codebook.beams()) {
      const double p = rx_power_dbm_naive(tx_pose, tx, rx_pose, candidate, t,
                                          tx_power_dbm);
      if (b.beam == kInvalidBeam || p > b.rx_power_dbm) {
        b.beam = candidate.id();
        b.rx_power_dbm = p;
      }
    }
    if (best.tx_beam == kInvalidBeam || b.rx_power_dbm > best.rx_power_dbm) {
      best.tx_beam = tx.id();
      best.rx_beam = b.beam;
      best.rx_power_dbm = b.rx_power_dbm;
    }
  }
  return best;
}

}  // namespace st::phy
