// BeamSurfer — in-band serving-cell beam maintenance (reference [2] of the
// paper, restated in its §3), running continuously while Silent Tracker
// works on the neighbour.
//
// Two rules, both driven only by RSS of the serving cell's SSBs:
//
//  (i)  Mobile-side adjustment: when the serving RSS drops by 3 dB,
//       probe the two directionally adjacent receive beams (one SSB burst
//       each — the radio has a single RF chain) and switch to the best.
//       This is the loop Silent Tracker runs on the neighbour: both hold
//       a BeamTrack (core/beam_track.hpp) and plan the round with
//       plan_adjacent_probe. BeamSurfer adds its own rules: a run of
//       `missed_ssb_limit` undetected SSBs also fires the round, and the
//       pre-drop reference is kept across a switch so that rule (ii) can
//       see that the switch did not suffice.
//  (ii) Base-station adjustment: when (i) no longer suffices — the best
//       receive beam is still 3 dB below reference — ask the base station
//       to switch to a directionally adjacent *transmit* beam. The mobile
//       picks the candidate from the SSB measurements it already has
//       (every burst sweeps all BS beams), so the request is a single
//       uplink message. This requires a working uplink: at cell edge the
//       request eventually stops getting through, which is exactly the
//       paper's cue that the serving cell is lost.
//
// BeamSurfer is the whole serving link: it also owns the link monitor
// (net/link_monitor.hpp) that declares radio link failure. Either trigger
// — RLF, or rule (ii)'s request undeliverable — stops the link and is
// reported once, with its reason, through one loss callback; both
// protocols run this same object.
//
// The protocol is deliberately myopic (adjacent beams only): under
// physical mobility the best beam drifts to a neighbouring codebook entry
// before it drifts anywhere else, and a full re-sweep would burn the
// measurement budget the mobile needs for the neighbour cell.
#pragma once

#include <functional>
#include <optional>
#include <string_view>

#include "core/beam_track.hpp"
#include "core/rss_tracker.hpp"
#include "net/environment.hpp"
#include "net/link_monitor.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace st::core {

/// BeamSurfer's serving-link loop states. Namespace-scope (rather than
/// nested) so the protocol-contract checker in core/invariants.hpp can
/// name them in its transition table.
enum class BeamSurferState {
  kSteady,      ///< tracked beam healthy; sampling every burst
  kProbing,     ///< 3 dB rule fired; measuring adjacent receive beams
  kRequesting,  ///< rule (ii): asking the BS for a transmit-beam switch
};

[[nodiscard]] std::string_view to_string(BeamSurferState state) noexcept;

struct BeamSurferConfig {
  /// Uplink tries for one base-station switch request before declaring
  /// the serving cell unreachable.
  unsigned max_request_attempts = 3;
  /// Consecutive undetected serving SSBs that count as "adaptation
  /// insufficient" even without a 3 dB drop (out-of-sync detection —
  /// needed because a filter parked at the noise floor cannot fall a
  /// further 3 dB).
  unsigned missed_ssb_limit = 5;
  /// Radio link failure detection on the serving beam pair.
  net::LinkMonitorConfig link_monitor{};
};

class BeamSurfer {
 public:
  /// Why the serving link was lost: "radio_link_failure" (the link
  /// monitor) or "bs_switch_request_undeliverable" (rule (ii)).
  using LossCallback = std::function<void(std::string_view reason)>;

  /// `rss_rule` is the 3 dB rule's filter, the one the neighbour loop runs
  /// too.
  BeamSurfer(sim::Simulator& simulator, net::RadioEnvironment& environment,
             const RssTrackerConfig& rss_rule, BeamSurferConfig config);

  /// Begin maintaining `cell` from an already-aligned state (the mobile
  /// was in steady state inside the cell before reaching the edge), then
  /// start its link monitor. The serving TX beam is read from, and written
  /// to, the base station object.
  void start(net::CellId cell, phy::BeamId initial_rx_beam,
             double initial_rss_dbm);

  /// Stop the loop and the link monitor.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  /// Current serving receive beam (what the data link and link monitor
  /// use; during a probe burst the radio briefly listens elsewhere).
  [[nodiscard]] phy::BeamId rx_beam() const noexcept {
    return track_.rss().beam();
  }
  [[nodiscard]] double filtered_rss_dbm() const noexcept {
    return track_.rss().filtered_rss_dbm();
  }

  /// Fires when the serving link is lost: the link monitor declared RLF,
  /// or rule (ii)'s uplink request failed `max_request_attempts` times.
  /// BeamSurfer has stopped (loop and monitor) before it fires, so each
  /// start() reports at most one loss.
  void set_loss_callback(LossCallback cb) { on_loss_ = std::move(cb); }

  /// Optional recording sinks (typed trace, protocol counters; not owned,
  /// may be null).
  void set_sinks(obs::Sinks sinks) {
    emit_.sinks = sinks;
    monitor_.set_sinks(sinks);
  }

  /// Current loop state (exposed for the contract checker and tests).
  [[nodiscard]] BeamSurferState state() const noexcept { return state_; }

 private:
  using State = BeamSurferState;
  friend class BeamTrack;

  /// Single mutation point for `state_` (see core/invariants.hpp).
  void transition_to(State next);
  void attempt_bs_switch();
  void lose(std::string_view reason);

  // BeamTrack rules (see core/beam_track.hpp). The serving link owns the
  // radio: nothing pre-empts its slots.
  [[nodiscard]] static bool radio_busy(sim::Time /*t*/) noexcept {
    return false;
  }
  void on_listening_burst();
  void on_tracked_sample(bool detected);
  void on_round_done(std::optional<BeamSample> winner);

  sim::Simulator& simulator_;
  net::RadioEnvironment& environment_;
  net::CellId cell_ = net::kInvalidCell;
  BeamSurferConfig config_;
  obs::Emitter emit_{obs::Component::kBeamSurfer};

  bool running_ = false;
  State state_ = State::kSteady;
  BeamTrack track_;
  net::LinkMonitor monitor_;

  unsigned request_attempts_ = 0;
  unsigned missed_ssbs_ = 0;

  LossCallback on_loss_;
};

}  // namespace st::core
