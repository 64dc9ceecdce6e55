// BeamSurfer — in-band serving-cell beam maintenance (reference [2] of the
// paper, restated in its §3), running continuously while Silent Tracker
// works on the neighbour.
//
// Two rules, both driven only by RSS of the serving cell's SSBs:
//
//  (i)  Mobile-side adjustment: when the serving RSS drops by 3 dB,
//       probe the two directionally adjacent receive beams (one SSB burst
//       each — the radio has a single RF chain) and switch to the best.
//  (ii) Base-station adjustment: when (i) no longer suffices — the best
//       receive beam is still 3 dB below reference — ask the base station
//       to switch to a directionally adjacent *transmit* beam. The mobile
//       picks the candidate from the SSB measurements it already has
//       (every burst sweeps all BS beams), so the request is a single
//       uplink message. This requires a working uplink: at cell edge the
//       request eventually stops getting through, which is exactly the
//       paper's cue that the serving cell is lost.
//
// The protocol is deliberately myopic (adjacent beams only): under
// physical mobility the best beam drifts to a neighbouring codebook entry
// before it drifts anywhere else, and a full re-sweep would burn the
// measurement budget the mobile needs for the neighbour cell.
#pragma once

#include <functional>
#include <optional>
#include <string_view>

#include "core/rss_tracker.hpp"
#include "net/environment.hpp"
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
  RssTrackerConfig tracker{};
  /// Uplink tries for one base-station switch request before declaring
  /// the serving cell unreachable.
  unsigned max_request_attempts = 3;
  /// A probed beam must beat the current filtered RSS by this margin to
  /// win the switch (0 dB reproduces the paper's plain rule).
  double probe_margin_db = 0.0;
  /// Consecutive undetected serving SSBs that count as "adaptation
  /// insufficient" even without a 3 dB drop (out-of-sync detection —
  /// needed because a filter parked at the noise floor cannot fall a
  /// further 3 dB).
  unsigned missed_ssb_limit = 5;
};

class BeamSurfer {
 public:
  BeamSurfer(sim::Simulator& simulator, net::RadioEnvironment& environment,
             net::CellId serving_cell, BeamSurferConfig config);

  /// Begin maintenance from an already-aligned state (the mobile was in
  /// steady state inside the cell before reaching the edge). The serving
  /// TX beam is read from, and written to, the base station object.
  void start(phy::BeamId initial_rx_beam, double initial_rss_dbm);

  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] net::CellId serving_cell() const noexcept { return cell_; }
  /// Current serving receive beam (what the data link and link monitor
  /// use; during a probe burst the radio briefly listens elsewhere).
  [[nodiscard]] phy::BeamId rx_beam() const noexcept {
    return tracker_.beam();
  }
  [[nodiscard]] double filtered_rss_dbm() const noexcept {
    return tracker_.filtered_rss_dbm();
  }

  /// Fires once when rule (ii)'s uplink request has failed
  /// `max_request_attempts` times — the serving cell can no longer be
  /// reached and adaptation is impossible. BeamSurfer keeps running (the
  /// caller decides whether to stop it; Silent Tracker switches cells).
  void set_unreachable_callback(std::function<void()> cb) {
    on_unreachable_ = std::move(cb);
  }

  /// Optional recording sinks (typed trace, protocol counters; not owned,
  /// may be null).
  void set_sinks(obs::Sinks sinks) { emit_.sinks = sinks; }

  /// Current loop state (exposed for the contract checker and tests).
  [[nodiscard]] BeamSurferState state() const noexcept { return state_; }

 private:
  using State = BeamSurferState;

  /// Single mutation point for `state_` (see core/invariants.hpp).
  void transition_to(State next);
  void on_burst();
  void handle_serving_sample(const net::SsbObservation& obs);
  void finish_probing();
  void attempt_bs_switch();

  sim::Simulator& simulator_;
  net::RadioEnvironment& environment_;
  net::CellId cell_;
  BeamSurferConfig config_;

  bool running_ = false;
  State state_ = State::kSteady;
  RssTracker tracker_;

  // Probing bookkeeping: candidates still to measure and results so far.
  std::vector<phy::BeamId> probe_pending_;
  std::vector<std::pair<phy::BeamId, double>> probe_results_;
  std::optional<phy::BeamId> probing_now_;

  // Latest per-TX-beam RSS from the current burst window (adjacent beams
  // measured opportunistically for rule (ii)).
  std::optional<std::pair<phy::BeamId, double>> best_adjacent_tx_;
  unsigned request_attempts_ = 0;
  unsigned missed_ssbs_ = 0;
  /// Trend of RX switches (-1/0/+1), as in SilentTracker: steady drift
  /// lets the probe round try the trend side only.
  int rx_trend_ = 0;

  std::vector<sim::EventId> pending_events_;
  sim::EventId burst_event_ = 0;

  std::function<void()> on_unreachable_;
  obs::Emitter emit_{obs::Component::kBeamSurfer};
};

}  // namespace st::core
