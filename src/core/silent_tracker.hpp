// Silent Tracker — the paper's contribution (Fig. 2b).
//
// An entirely in-band, mobile-controlled beam-management protocol for
// soft handover. While BeamSurfer keeps the *serving* link alive, Silent
// Tracker prepares the *next* link without ever talking to it:
//
//   InitialSearch --found--> Tracking --serving lost--> Accessing
//        ^                      |                        |   |
//        |                      | (3 dB drop: probe      |   +--success--> Complete
//        |                      |  adjacent RX beams,    |
//        |                      |  follow TX beam drift) |
//        +--- serving lost      |                        +--RACH failed--> FallbackSearch
//             before found -----+------------------------------(hard handover)---+
//                                                               ^                |
//                                                               +----- RACH -----+
//
//  * InitialSearch: directional search for any neighbour cell's beam,
//    using only measurement gaps (serving slots pre-empt the radio).
//  * Tracking ("silent"): the discovered beam pair is maintained by pure
//    receive-side adaptation — switch to a directionally adjacent receive
//    beam when the neighbour's RSS drops 3 dB; follow the neighbour's
//    transmit-beam drift by comparing the adjacent SSBs of the same
//    burst. No uplink to the neighbour exists yet, so nothing is ever
//    requested of it: tracking is invisible to the network. The loop is
//    the one BeamSurfer runs on the serving cell (BeamTrack,
//    core/beam_track.hpp); the tracker adds its own rules: serving SSB
//    slots pre-empt the neighbour's, two votes retarget the TX beam, a
//    lost beam gets one full-codebook recovery sweep, the BeamPolicy
//    plans (and may refine) each round, and a neighbour quiet for
//    `neighbour_abandon_after` is abandoned.
//  * Accessing: the serving link has died (radio link failure, or
//    BeamSurfer's base-station switch request can no longer be
//    delivered). The mobile switches serving cells and runs random
//    access *on the already-aligned tracked beam*; tracking continues
//    during the procedure so the beam stays fresh until Msg4.
//  * FallbackSearch: only reached when access fails (or the serving cell
//    died before anything was found) — the hard-handover path the
//    protocol exists to avoid: a from-scratch search with no serving
//    cell, then random access.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "core/beam_policy.hpp"
#include "core/beam_track.hpp"
#include "core/beamsurfer.hpp"
#include "core/protocol_config.hpp"
#include "net/cell_search.hpp"
#include "net/environment.hpp"
#include "net/handover.hpp"
#include "net/handover_policy.hpp"
#include "net/rach.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace st::core {

enum class SilentTrackerState {
  kIdle,
  kSearching,
  kTracking,
  kAccessing,
  kFallbackSearch,
  kComplete,
  kFailed,
};

[[nodiscard]] std::string_view to_string(SilentTrackerState state) noexcept;

class SilentTracker {
 public:
  using HandoverCallback = std::function<void(const net::HandoverRecord&)>;

  /// `policy` plans the probe rounds (BeamPolicy, core/beam_policy.hpp).
  /// It is not owned and outlives the tracker: the scenario layer owns one
  /// per mobile and shares it across the handover chain, like the
  /// decision layer.
  SilentTracker(sim::Simulator& simulator, net::RadioEnvironment& environment,
                ProtocolConfig config, BeamPolicy& policy);
  ~SilentTracker();

  SilentTracker(const SilentTracker&) = delete;
  SilentTracker& operator=(const SilentTracker&) = delete;

  /// Start from steady state in `serving_cell`: the serving TX beam is
  /// whatever the base station currently has, `serving_rx_beam` is
  /// aligned, and `serving_rss_dbm` seeds BeamSurfer's reference.
  /// `on_handover` fires exactly once, when the handover completes or
  /// definitively fails.
  void start(net::CellId serving_cell, phy::BeamId serving_rx_beam,
             double serving_rss_dbm, HandoverCallback on_handover);

  void stop();

  [[nodiscard]] SilentTrackerState state() const noexcept { return state_; }
  [[nodiscard]] net::CellId serving_cell() const noexcept { return serving_; }
  [[nodiscard]] net::CellId neighbour_cell() const noexcept {
    return track_.cell();
  }
  /// Tracked neighbour beams (valid in kTracking and later states).
  [[nodiscard]] phy::BeamId neighbour_rx_beam() const noexcept {
    return track_.rss().beam();
  }
  [[nodiscard]] phy::BeamId neighbour_tx_beam() const noexcept {
    return track_.tx_beam();
  }
  [[nodiscard]] const BeamSurfer& beamsurfer() const noexcept {
    return beamsurfer_;
  }
  /// Whether the serving link is still believed alive (false from the
  /// moment RLF / unreachability routed the protocol towards access).
  [[nodiscard]] bool serving_alive() const noexcept { return serving_alive_; }

  /// Recording sinks (typed trace, protocol counters; not owned, may be
  /// null). Propagated to the sub-procedures (BeamSurfer, search, RACH,
  /// link monitor) so every component records into the same trace and
  /// counters. Set before start().
  void set_sinks(obs::Sinks sinks) { emit_.sinks = sinks; }

  /// Neighbour-ranking decision layer (not owned; may be null). When set
  /// and enabled, the tracker (a) draws its search candidates from the
  /// serving cell's NeighborList, (b) adopts the best-*scored* search
  /// detection — filtered RSS minus load penalty, penalized cells
  /// excluded while the serving link lives, ties to the lower CellId —
  /// instead of the raw strongest, (c) refreshes one rival candidate per
  /// scan period while tracking, and (d) abandons the tracked candidate
  /// when a rival wins the crossover vote, re-entering InitialSearch to
  /// re-rank. Null (or a disabled config) reproduces the legacy
  /// strongest-RSS behaviour bit for bit. The decision object outlives
  /// the tracker (the scenario layer owns it across handover chains) and
  /// must be set before start().
  void set_decision(net::HandoverDecision* decision);

 private:
  friend class BeamTrack;

  /// Single mutation point for `state_`: every state change funnels
  /// through here so the Fig. 2b contract checker (core/invariants.hpp,
  /// compiled in with ST_CHECK_INVARIANTS=ON) sees each transition.
  void transition_to(SilentTrackerState next);
  [[nodiscard]] bool policy_active() const noexcept {
    return decision_ != nullptr && decision_->enabled();
  }
  void enter_searching();
  void on_search_done(const net::SearchOutcome& outcome);
  /// The detection a search resolves to: the strongest one, or with a
  /// decision layer the best-ranked one (penalty timers waived unless
  /// `serving_alive`); nullopt when the layer finds none eligible.
  [[nodiscard]] std::optional<net::SsbObservation> pick_detection(
      const net::SearchOutcome& outcome, bool serving_alive);
  void enter_tracking(net::CellId cell, phy::BeamId tx_beam,
                      phy::BeamId rx_beam, double rss_dbm);
  void schedule_rival_scan();
  void on_rival_scan();
  void check_crossover();
  /// Abandon the tracked neighbour and search again, for `reason` or
  /// (reason empty) after `quiet_ms` of silence.
  void abandon_tracked(std::string_view reason, double quiet_ms = 0.0);
  void on_serving_lost(std::string_view reason);
  void enter_accessing();
  void on_rach_done(const net::RachOutcome& outcome);
  void enter_fallback();
  void on_fallback_search_done(const net::SearchOutcome& outcome);
  void complete(bool success);
  void cancel_tracking_events();

  // BeamTrack rules (see core/beam_track.hpp). While the serving cell is
  // alive its SSB slots pre-empt the neighbour's.
  [[nodiscard]] bool radio_busy(sim::Time t) const;
  static void on_listening_burst() noexcept {}
  void on_tracked_sample(bool detected);
  void on_round_done(std::optional<BeamSample> winner);

  sim::Simulator& simulator_;
  net::RadioEnvironment& environment_;
  ProtocolConfig config_;

  SilentTrackerState state_ = SilentTrackerState::kIdle;
  net::CellId serving_ = net::kInvalidCell;
  obs::Emitter emit_{obs::Component::kSilentTracker};
  /// The neighbour loop: cell, TX beam, RX filter and probe rounds.
  BeamTrack track_;

  /// The serving link (loop and link monitor).
  BeamSurfer beamsurfer_;
  /// The running search: InitialSearch's, then FallbackSearch's.
  std::unique_ptr<net::CellSearch> search_;
  std::unique_ptr<net::RachProcedure> rach_;

  unsigned retarget_votes_ = 0;
  /// Consecutive undetected tracked-slot SSBs; at 3 the tracker has lost
  /// the beam beyond what adjacent stepping can recover (e.g. fast
  /// rotation) and runs an NR-style beam-failure-recovery sweep over the
  /// whole codebook.
  unsigned missed_tracked_ = 0;
  /// True while a beam-failure-recovery sweep (full codebook) is the
  /// probe round in flight; a sweep that still concludes at the noise
  /// floor re-baselines instead of looping immediately.
  bool in_recovery_sweep_ = false;
  /// When the tracked neighbour first went quiet (floor-level probe
  /// conclusions); reset on any detected sample.
  std::optional<sim::Time> neighbour_quiet_since_;

  /// Background rival refresh (policy runs only): one neighbour-list
  /// cell per scan period gets its next SSB burst observed, feeding the
  /// decision layer's candidate table for the crossover test.
  net::HandoverDecision* decision_ = nullptr;
  sim::EventId rival_scan_event_ = 0;
  std::vector<sim::EventId> rival_obs_events_;

  /// Probe planner (not owned).
  BeamPolicy& policy_;

  // Handover bookkeeping.
  net::HandoverRecord record_;
  bool serving_alive_ = true;
  unsigned fallback_rounds_ = 0;
  HandoverCallback on_handover_;
};

}  // namespace st::core
