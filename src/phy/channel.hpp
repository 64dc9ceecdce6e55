// The composed link-level channel between one transmitter (base station)
// and one receiver (mobile).
//
// rx power [dBm] for a (TX beam, RX beam) pair at time t =
//     TX power
//   + TX beam gain towards path departure (TX body frame)
//   + RX beam gain towards path arrival  (RX body frame)
//   − path loss over the path length (incl. 60 GHz oxygen absorption)
//   − reflection loss              (NLOS paths)
//   − human blockage attenuation   (LOS path only)
//   − correlated shadowing         (bulk, all paths)
// summed in the linear domain over the LOS path and every reflector path.
//
// Everything stochastic (reflector placement, shadowing walk, blockage
// schedule) is drawn from streams derived from one seed, so a Channel is a
// pure function of (config, anchors, seed) and every experiment replays
// exactly.
#pragma once

#include <cstdint>

#include "common/pose.hpp"
#include "common/units.hpp"
#include "phy/blockage.hpp"
#include "phy/codebook.hpp"
#include "phy/multipath.hpp"
#include "phy/pathloss.hpp"
#include "phy/shadowing.hpp"
#include "sim/time.hpp"

namespace st::phy {

// Defined in path_snapshot.hpp together with the sweep kernels.
struct PathSnapshot;
struct SnapshotReuse;
struct SnapshotCacheStats;

struct ChannelConfig {
  PathLossConfig pathloss{.model = PathLossModel::kFreeSpace,
                          .carrier_hz = kDefaultCarrierHz};
  ShadowingConfig shadowing{};
  BlockageConfig blockage{};
  MultipathConfig multipath{};
  /// Combine multipath components coherently: each path contributes a
  /// complex amplitude with phase 2*pi*L/lambda from its exact geometric
  /// length, so small-scale (Rician-like) fading and Doppler emerge
  /// naturally as the mobile moves — at 60 GHz the pattern changes every
  /// ~2.5 mm of motion. Deterministic and query-order independent (a pure
  /// function of geometry). Default off: the incoherent power sum gives
  /// the large-scale envelope the protocols' 3 dB rule is specified
  /// against, with small-scale effects represented by measurement noise.
  bool coherent_combining = false;
};

class Channel {
 public:
  /// `tx_anchor` / `rx_anchor` seed the reflector placement (typically the
  /// BS position and the mobile's starting position); `horizon` bounds the
  /// pre-drawn blockage schedule.
  Channel(const ChannelConfig& config, Vec3 tx_anchor, Vec3 rx_anchor,
          sim::Duration horizon, std::uint64_t seed);

  /// Received power [dBm] for the given geometry, beams, and time.
  /// Internally builds a PathSnapshot (thread-local scratch, no
  /// allocation once warm) and evaluates the pair over it.
  [[nodiscard]] double rx_power_dbm(const Pose& tx_pose, const Beam& tx_beam,
                                    const Pose& rx_pose, const Beam& rx_beam,
                                    sim::Time t, double tx_power_dbm) const;

  /// Build the beam-independent snapshot for this geometry/time: per
  /// path, the base power (tx power − path loss − reflection loss −
  /// shadowing − blockage on the LOS path), the body-frame azimuths, and
  /// the geometric phase. `out`'s storage is reused across calls, so a
  /// warmed snapshot rebuilds without allocating. Callers that evaluate
  /// many beams at one (poses, t) — sweeps, the environment's per-tick
  /// queries — should build one snapshot and use the kernels in
  /// path_snapshot.hpp.
  void make_snapshot(const Pose& tx_pose, const Pose& rx_pose, sim::Time t,
                     double tx_power_dbm, PathSnapshot& out) const;

  /// Incremental snapshot build. Like make_snapshot, but when `reuse`
  /// carries the valid state of the previous build of `out`, only the
  /// components the (pose, t, power) delta actually invalidates are
  /// recomputed: an unchanged RX position keeps the shadowing sample, a t
  /// still inside the cached blockage window keeps the attenuation,
  /// unchanged positions keep the whole path geometry (a pure rotation
  /// then refreshes nothing but the azimuths). The result is bit-identical
  /// to a full build — pinned by tests/phy/test_path_snapshot.cpp.
  /// `reuse` must describe `out` (same slot, as SnapshotEpochCache
  /// guarantees); pass nullptr for a one-off full build. `stats`, when
  /// non-null, counts the build and its per-component reuse.
  void update_snapshot(const Pose& tx_pose, const Pose& rx_pose, sim::Time t,
                       double tx_power_dbm, PathSnapshot& out,
                       SnapshotReuse* reuse, SnapshotCacheStats* stats) const;

  /// The best RX beam of an RX sweep (sweep_rx_beams) and its rx power:
  /// ground truth for the metric layer (protocols must not sweep).
  struct BestBeam {
    BeamId beam = kInvalidBeam;
    double rx_power_dbm = 0.0;
  };

  /// Best (TX beam, RX beam) pair over both codebooks — used to score
  /// whether a tracker stayed aligned to the best the hardware could do.
  struct BestPair {
    BeamId tx_beam = kInvalidBeam;
    BeamId rx_beam = kInvalidBeam;
    double rx_power_dbm = 0.0;
  };
  [[nodiscard]] BestPair best_beam_pair(const Pose& tx_pose,
                                        const Codebook& tx_codebook,
                                        const Pose& rx_pose,
                                        const Codebook& rx_codebook,
                                        sim::Time t, double tx_power_dbm) const;

  // ---- Naive reference formulation ------------------------------------
  // The original per-call formulation that re-derives every term (path
  // set, shadowing, blockage, pathloss) for each beam pair. Kept as the
  // golden reference for the snapshot equivalence tests
  // (tests/phy/test_path_snapshot.cpp) and the bench_micro speedup
  // comparison; production callers use the snapshot fast path above.

  [[nodiscard]] double rx_power_dbm_naive(const Pose& tx_pose,
                                          const Beam& tx_beam,
                                          const Pose& rx_pose,
                                          const Beam& rx_beam, sim::Time t,
                                          double tx_power_dbm) const;

  [[nodiscard]] BestPair best_beam_pair_naive(const Pose& tx_pose,
                                              const Codebook& tx_codebook,
                                              const Pose& rx_pose,
                                              const Codebook& rx_codebook,
                                              sim::Time t,
                                              double tx_power_dbm) const;

  [[nodiscard]] bool coherent() const noexcept { return coherent_; }
  [[nodiscard]] const PathLoss& pathloss() const noexcept { return pathloss_; }
  [[nodiscard]] const BlockageProcess& blockage() const noexcept {
    return blockage_;
  }
  [[nodiscard]] const MultipathGeometry& multipath() const noexcept {
    return multipath_;
  }
  [[nodiscard]] const ShadowingProcess& shadowing() const noexcept {
    return shadowing_;
  }

 private:
  bool coherent_;
  double wavelength_m_;
  PathLoss pathloss_;
  ShadowingProcess shadowing_;
  BlockageProcess blockage_;
  MultipathGeometry multipath_;
};

}  // namespace st::phy
