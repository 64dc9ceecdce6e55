// BeamPolicy — the pluggable probe-planning strategy of the tracker.
//
// When the neighbour link degrades (the 3 dB drop rule, or three missed
// tracked-slot SSBs), SilentTracker needs a list of receive beams to try
// — one SSB burst each. WHICH beams to try is exactly where published
// beam-management designs differ, so that decision is a Strategy:
//
//  * kSilentTracker — the paper's design, plan_adjacent_probe
//    (core/beam_track.hpp), the planner BeamSurfer also uses on the
//    serving link: probe the directionally adjacent beams (trend side
//    only under steady drift) plus a fresh re-measurement of the current
//    beam. Two to three bursts per reaction; beats everything on
//    reaction latency.
//  * kFullSweep — the E6 ablation of the paper's design: re-measure the
//    whole codebook on every drop. More accurate per decision, but so
//    slow (one burst per beam) that the link moves on before the sweep
//    finishes.
//  * kHierarchical — coarse-to-fine fast beam training in the style of
//    Palacios et al. ("Tracking mm-Wave Channel Dynamics"): probe a
//    strided coarse tier spanning the whole codebook, then refine one
//    round around the coarse winner. Finds far-off beams the adjacent
//    rule cannot reach, at several times the burst cost.
//  * kBlind — beampattern-based blind tracking in the style of Gao et
//    al.: predict the motion direction from the drift trend and jump to
//    the predicted beam without re-measuring the current one. One burst
//    per reaction, but a channel-induced drop (blockage, distance) still
//    triggers a switch — there is no fresh-vs-fresh comparison to veto it.
//
// The probe round itself is the beam-tracking loop both links share
// (BeamTrack), and the escalation ladder around it — noise-floor
// detection, the one-shot full-codebook recovery sweep, re-baselining —
// is SilentTracker's; policies only plan candidate lists. The default
// policy reproduces the historical planner bit for bit, so runs with
// `beam_policy` unset are fingerprint-identical to before the extraction.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "phy/codebook.hpp"

namespace st::core {

enum class BeamPolicyKind {
  kSilentTracker,  ///< the paper's adjacent-probe rule (default)
  kFullSweep,      ///< the whole codebook on every drop (E6 ablation)
  kHierarchical,   ///< coarse tier, then refine around the winner
  kBlind,          ///< jump to the trend-predicted beam, no re-measure
};

/// "silent_tracker", "silent_tracker_full_sweep", "hierarchical", "blind".
[[nodiscard]] std::string_view to_string(BeamPolicyKind kind) noexcept;

struct BeamPolicyConfig {
  BeamPolicyKind kind = BeamPolicyKind::kSilentTracker;
  /// Coarse-tier stride of the hierarchical policy: probe every
  /// `coarse_stride`-th beam. 0 = auto (≈ sqrt of the codebook size, the
  /// cost-balanced two-tier split). Ignored by the other policies.
  unsigned coarse_stride = 0;
};

/// What the tracker knows at planning time.
struct BeamProbeContext {
  const phy::Codebook& codebook;  ///< the mobile's RX codebook
  phy::BeamId current;            ///< currently tracked RX beam
  double filtered_rss_dbm;        ///< the tracker's filtered level
  int rx_trend;                   ///< -1 left / +1 right / 0 unknown
  bool lost;                      ///< true when missed SSBs (not a dB
                                  ///< drop) triggered the round
};

class BeamPolicy {
 public:
  virtual ~BeamPolicy() = default;

  /// A new tracking episode began (neighbour adopted): clear any
  /// cross-round state.
  virtual void reset() {}

  /// The drop rule fired: append the RX beams to probe (one SSB burst
  /// each, probed in order) to `out`.
  virtual void plan_probe(const BeamProbeContext& ctx,
                          std::vector<phy::BeamId>& out) = 0;

  /// A probe round concluded above the floor with `winner`. Append a
  /// refinement round to `out` to probe again before adopting; leave it
  /// empty to adopt `winner` now. Default: adopt.
  virtual void plan_refine(const BeamProbeContext& ctx, phy::BeamId winner,
                           std::vector<phy::BeamId>& out) {
    (void)ctx;
    (void)winner;
    (void)out;
  }
};

[[nodiscard]] std::unique_ptr<BeamPolicy> make_beam_policy(
    const BeamPolicyConfig& config);

}  // namespace st::core
