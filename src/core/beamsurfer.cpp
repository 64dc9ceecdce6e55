#include "core/beamsurfer.hpp"

#include <stdexcept>

#include "common/contracts.hpp"
#include "core/invariants.hpp"

namespace st::core {

std::string_view to_string(BeamSurferState state) noexcept {
  switch (state) {
    case BeamSurferState::kSteady:
      return "Steady";
    case BeamSurferState::kProbing:
      return "Probing";
    case BeamSurferState::kRequesting:
      return "Requesting";
  }
  return "?";
}

void BeamSurfer::transition_to(State next) {
  ST_INVARIANT(invariants::check_beamsurfer_transition(state_, next));
  state_ = next;
}

BeamSurfer::BeamSurfer(sim::Simulator& simulator,
                       net::RadioEnvironment& environment,
                       const RssTrackerConfig& rss_rule,
                       BeamSurferConfig config)
    : simulator_(simulator),
      environment_(environment),
      config_(config),
      track_(simulator, environment, rss_rule, emit_,
             obs::ProtocolCounter::kServingRxSwitches),
      monitor_(simulator, environment, config.link_monitor) {
  if (config.max_request_attempts == 0) {
    throw std::invalid_argument("BeamSurfer: need at least one request attempt");
  }
}

void BeamSurfer::start(net::CellId cell, phy::BeamId initial_rx_beam,
                       double initial_rss_dbm) {
  if (running_) {
    throw std::logic_error("BeamSurfer: already running");
  }
  running_ = true;
  cell_ = cell;
  ST_INVARIANT(invariants::check_beam_in_codebook(
      "initial serving rx beam", initial_rx_beam,
      environment_.ue_codebook().size()));
  transition_to(State::kSteady);
  request_attempts_ = 0;
  missed_ssbs_ = 0;
  track_.start(*this, cell_, environment_.bs(cell_).serving_tx_beam(),
               initial_rx_beam, initial_rss_dbm);
  monitor_.start(
      cell_, [this] { return rx_beam(); },
      [this] { lose("radio_link_failure"); });
}

void BeamSurfer::stop() {
  track_.stop();
  monitor_.stop();
  running_ = false;
}

void BeamSurfer::lose(std::string_view reason) {
  stop();
  if (on_loss_) {
    on_loss_(reason);
  }
}

void BeamSurfer::on_listening_burst() {
  // Rule (ii) runs at the END of the burst, once both adjacent TX beams
  // have been heard — deciding at the serving slot would always miss the
  // higher-indexed adjacent candidate.
  if (state_ == State::kRequesting) {
    const net::FrameSchedule& schedule = environment_.bs(cell_).schedule();
    track_.schedule_in_burst(
        schedule.next_burst_start(simulator_.now()) + schedule.burst_duration(),
        [this] {
          if (state_ == State::kRequesting) {
            attempt_bs_switch();
          }
        });
  }
}

void BeamSurfer::on_tracked_sample(bool detected) {
  missed_ssbs_ = detected ? 0 : missed_ssbs_ + 1;
  // kRequesting: the end-of-burst event runs the request; kProbing: the
  // round's slots are still to come.
  if (state_ != State::kSteady) {
    return;
  }
  // The drop rule, plus out-of-sync detection: a run of undetected
  // serving SSBs means the link collapsed past what the RSS filter
  // (parked at the noise floor) can express as a further drop.
  const RssTracker& rss = track_.rss();
  if (rss.drop_detected() || missed_ssbs_ >= config_.missed_ssb_limit) {
    emit_.count(obs::ProtocolCounter::kServingDropEvents);
    emit_.emit({.t = simulator_.now(),
                .type = obs::TraceEventType::kRssDrop,
                .cell = cell_,
                .value = rss.filtered_rss_dbm(),
                .value2 = rss.reference_rss_dbm()});
    transition_to(State::kProbing);
    plan_adjacent_probe(environment_.ue_codebook(), rss.beam(),
                        track_.rx_trend(), track_.plan_round());
  }
}

void BeamSurfer::on_round_done(std::optional<BeamSample> winner) {
  if (winner.has_value()) {
    ST_INVARIANT(invariants::check_beam_in_codebook(
        "winning serving rx beam", winner->beam,
        environment_.ue_codebook().size()));
    // Adopt the winner (possibly the current beam at its fresh level) but
    // keep the pre-drop reference: if even the best beam is still 3 dB
    // below it, receive-side adaptation "no longer suffices" and the
    // check below escalates to the base-station adjustment.
    track_.adopt(*winner, /*keep_reference=*/true);
  }

  // Rule (ii) trigger: mobile-side adjustment no longer suffices —
  // either the drop persists, or the serving SSBs are not even being
  // detected any more.
  if (track_.rss().drop_detected() ||
      missed_ssbs_ >= config_.missed_ssb_limit) {
    transition_to(State::kRequesting);
    request_attempts_ = 0;
  } else {
    transition_to(State::kSteady);
  }
}

void BeamSurfer::attempt_bs_switch() {
  // Rule (ii) is a *communication*: the mobile must reach the base
  // station to report that receive-side adaptation no longer suffices.
  // The uplink attempt happens regardless of whether a better adjacent TX
  // beam has been measured — it is precisely this message ceasing to get
  // through that tells the mobile the serving cell is lost (the paper's
  // trigger for switching cells).
  ++request_attempts_;
  emit_.count(obs::ProtocolCounter::kBsSwitchRequests);
  const bool delivered = environment_.uplink_success(
      cell_, track_.rss().beam(), track_.tx_beam(), simulator_.now());
  if (delivered) {
    request_attempts_ = 0;
    transition_to(State::kSteady);
    // The paper's plain rule: any stronger adjacent TX beam wins.
    if (track_.adjacent_tx_beats(/*margin_db=*/0.0)) {
      const phy::BeamId new_tx = track_.best_adjacent_tx()->beam;
      ST_INVARIANT(invariants::check_beam_in_codebook(
          "requested serving tx beam", new_tx,
          environment_.bs(cell_).codebook().size()));
      emit_.emit({.t = simulator_.now(),
                  .type = obs::TraceEventType::kTxBeamSwitch,
                  .cell = cell_,
                  .beam_b = new_tx});
      emit_.count(obs::ProtocolCounter::kBsSwitches);
      environment_.bs_mutable(cell_).set_serving_tx_beam(new_tx);
      // Re-seed on the new configuration at its reported strength.
      track_.adopt_adjacent_tx();
    } else {
      // The base station heard us but has nothing better adjacent: the
      // loss is the channel's. Accept the current level as the new
      // baseline so the drop rule measures future degradation.
      RssTracker& rss = track_.rss();
      rss.select_beam(rss.beam(), rss.filtered_rss_dbm());
    }
    return;
  }
  if (request_attempts_ >= config_.max_request_attempts) {
    emit_.emit({.t = simulator_.now(),
                .type = obs::TraceEventType::kServingUnreachable,
                .cell = cell_});
    emit_.count(obs::ProtocolCounter::kServingUnreachable);
    lose("bs_switch_request_undeliverable");
  }
}

}  // namespace st::core
