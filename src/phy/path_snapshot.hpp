// Beam-independent path snapshots and allocation-free codebook sweep
// kernels — the channel-sweep fast path.
//
// An exhaustive sweep (an RX sweep, or Channel::best_beam_pair) evaluates
// the received power once per candidate beam (pair), but between
// candidates only the beam gains change: the multipath path set, path
// loss, reflection losses, shadowing, blockage and the body-frame
// azimuths depend solely on (tx pose, rx pose, t). A PathSnapshot
// captures those once as structure-of-arrays state; the sweep kernels
// then score entire codebooks by building per-path gain rows with the
// codebooks' batch evaluators and accumulating the combining metric with
// the vectorized helpers in simd.hpp — no heap allocation once warm and
// no dB<->linear round trips in the inner loop.
//
// SnapshotReuse extends the fast path across *time*: it carries the
// per-component inputs of the last build (world-frame geometry, slow
// shadowing/blockage state, phases) together with the poses they were
// computed for, so Channel::update_snapshot can recompute only the
// components an actual pose/time delta invalidates. A pure rotation
// refreshes nothing but the RX azimuths; an RX-only move keeps the TX
// azimuths of the reflected paths; a time step inside the same blockage
// window with an unchanged pose refreshes nothing at all.
//
// Equivalence with the naive per-call formulation (kept as
// Channel::rx_power_dbm_naive) is pinned to <= 1e-9 dB by
// tests/phy/test_path_snapshot.cpp across coherent/incoherent configs and
// all pattern families; incremental rebuilds are pinned bit-identical to
// full rebuilds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/pose.hpp"
#include "phy/channel.hpp"
#include "sim/time.hpp"

namespace st::phy {

/// Per-path state that does not depend on the beams under evaluation,
/// computed by Channel::make_snapshot / update_snapshot. Paths appear LOS
/// first, then one per reflector — the same order as
/// MultipathGeometry::paths(). Stored as structure-of-arrays so the sweep
/// kernels stream each component contiguously.
struct PathSnapshot {
  bool coherent = false;  ///< combine amplitudes instead of powers

  std::vector<double> base_db;  ///< beam-independent rx power [dBm]: tx
                                ///< power − path loss − reflection loss −
                                ///< shadowing − blockage (LOS only)
  std::vector<double> base_linear;  ///< from_db(base_db) [mW]
  std::vector<double> amp_cos;  ///< sqrt(base_linear)·cos(geometric phase)
  std::vector<double> amp_sin;  ///< sqrt(base_linear)·sin(geometric phase)
  std::vector<double> tx_az;    ///< body-frame azimuth of departure at TX
  std::vector<double> rx_az;    ///< body-frame azimuth of arrival at RX

  [[nodiscard]] std::size_t size() const noexcept { return base_db.size(); }
  [[nodiscard]] bool empty() const noexcept { return base_db.empty(); }

  /// Resize every component array; storage is reused across rebuilds.
  void resize(std::size_t n) {
    base_db.resize(n);
    base_linear.resize(n);
    amp_cos.resize(n);
    amp_sin.resize(n);
    tx_az.resize(n);
    rx_az.resize(n);
  }
};

/// Cached build inputs of one snapshot, owned by the caller (one per
/// cached snapshot slot) and threaded back into Channel::update_snapshot
/// so consecutive builds recompute only what a delta invalidates. `valid`
/// means: every field below describes the snapshot the caller holds. A
/// build in progress clears it first, so a throwing channel can never
/// leave reuse state describing a half-built snapshot.
struct SnapshotReuse {
  bool valid = false;
  Pose tx_pose;
  Pose rx_pose;
  double tx_power_dbm = 0.0;

  // Geometry-derived, valid while both positions are unchanged.
  std::vector<Vec3> departure;        ///< world-frame departure directions
  std::vector<Vec3> arrival;          ///< world-frame arrival directions
  std::vector<double> length_m;       ///< total path lengths
  std::vector<double> extra_loss_db;  ///< reflection losses (0 for LOS)
  std::vector<double> path_loss_db;   ///< pathloss over each length
  std::vector<double> phase_cos;      ///< cos of the geometric phase
  std::vector<double> phase_sin;      ///< sin of the geometric phase
  std::vector<std::uint8_t> is_los;   ///< 1 for the LOS path

  // Slow-process state.
  double shadow_db = 0.0;  ///< valid while the RX position is unchanged
  double block_db = 0.0;   ///< valid for t in [block_from, block_until)
  sim::Time block_from;
  sim::Time block_until;

  /// Resize every geometry array; storage is reused across rebuilds.
  void resize(std::size_t n) {
    departure.resize(n);
    arrival.resize(n);
    length_m.resize(n);
    extra_loss_db.resize(n);
    path_loss_db.resize(n);
    phase_cos.resize(n);
    phase_sin.resize(n);
    is_los.resize(n);
  }
};

/// Snapshot work counters of one radio environment, declared once and
/// counted where the work happens: SnapshotEpochCache counts its queries
/// (hits, refreshes, cold misses and cross-UE invalidations are disjoint
/// and sum to the query count), Channel::update_snapshot counts builds and
/// how deep each rebuild's per-component reuse went, and
/// net::RadioEnvironment counts sweeps and certified misses. Maintained
/// unconditionally (one integer increment per event) and carried as is by
/// the run and fleet reports.
struct SnapshotCacheStats {
  std::uint64_t hits = 0;       ///< query served from the cached epoch
  std::uint64_t refreshes = 0;  ///< warm same-UE rebuild at a new instant
                                ///< (incremental, reuse state kept)
  /// SSB observations settled as undetected from an older cached snapshot
  /// and a slope bound, with no rebuild (RadioEnvironment::observe_ssb).
  /// A work counter like the four above, but not a query: hit_rate()
  /// leaves it out.
  std::uint64_t certified_misses = 0;
  std::uint64_t cold_misses = 0;    ///< rebuild with no valid entry
  std::uint64_t invalidations = 0;  ///< valid entry evicted for another UE
  std::uint64_t pair_sweeps = 0;    ///< ground_truth_best_pair kernel calls
  std::uint64_t rx_sweeps = 0;      ///< ground_truth_best_rx kernel calls

  std::uint64_t full_builds = 0;         ///< builds with no reuse state
  std::uint64_t incremental_builds = 0;  ///< builds that saw reuse state
  std::uint64_t geometry_reuses = 0;     ///< path geometry carried over
  std::uint64_t shadow_reuses = 0;       ///< shadowing sample carried over
  std::uint64_t blockage_reuses = 0;     ///< blockage window carried over
  std::uint64_t azimuth_reuses = 0;      ///< both azimuth sets carried over

  [[nodiscard]] std::uint64_t rebuilds() const noexcept {
    return refreshes + cold_misses + invalidations;
  }

  /// Fraction of queries that reused cached state: exact hits plus
  /// incremental refreshes, over all queries. Cold misses and cross-UE
  /// evictions — the rebuilds that start from nothing — are the misses.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + rebuilds();
    return total == 0 ? 0.0
                      : static_cast<double>(hits + refreshes) /
                            static_cast<double>(total);
  }

  /// Accumulate another environment's counters (fleet-level aggregation).
  void merge(const SnapshotCacheStats& other) noexcept {
    hits += other.hits;
    refreshes += other.refreshes;
    certified_misses += other.certified_misses;
    cold_misses += other.cold_misses;
    invalidations += other.invalidations;
    pair_sweeps += other.pair_sweeps;
    rx_sweeps += other.rx_sweeps;
    full_builds += other.full_builds;
    incremental_builds += other.incremental_builds;
    geometry_reuses += other.geometry_reuses;
    shadow_reuses += other.shadow_reuses;
    blockage_reuses += other.blockage_reuses;
    azimuth_reuses += other.azimuth_reuses;
  }
};

/// Received power [dBm] for one (TX beam, RX beam) pair over a snapshot.
[[nodiscard]] double snapshot_rx_power_dbm(const PathSnapshot& snapshot,
                                           const Beam& tx_beam,
                                           const Beam& rx_beam) noexcept;

/// Best RX beam in `rx_codebook` for a fixed TX beam, on a snapshot.
/// Ties keep the lowest beam id, matching the naive scan.
[[nodiscard]] Channel::BestBeam sweep_rx_beams(const PathSnapshot& snapshot,
                                               const Beam& tx_beam,
                                               const Codebook& rx_codebook);

/// Best (TX beam, RX beam) pair over both codebooks — the fast equivalent
/// of Channel::best_beam_pair once a snapshot exists.
[[nodiscard]] Channel::BestPair sweep_beam_pairs(const PathSnapshot& snapshot,
                                                 const Codebook& tx_codebook,
                                                 const Codebook& rx_codebook);

}  // namespace st::phy
