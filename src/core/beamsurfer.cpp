#include "core/beamsurfer.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"
#include "core/invariants.hpp"

namespace st::core {

namespace {
using net::SsbObservation;
}  // namespace

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
                       net::CellId serving_cell, BeamSurferConfig config)
    : simulator_(simulator),
      environment_(environment),
      cell_(serving_cell),
      config_(config),
      tracker_(config.tracker) {
  if (config.max_request_attempts == 0) {
    throw std::invalid_argument("BeamSurfer: need at least one request attempt");
  }
}

void BeamSurfer::start(phy::BeamId initial_rx_beam, double initial_rss_dbm) {
  if (running_) {
    throw std::logic_error("BeamSurfer: already running");
  }
  running_ = true;
  ST_INVARIANT(invariants::check_beam_in_codebook(
      "initial serving rx beam", initial_rx_beam,
      environment_.ue_codebook().size()));
  transition_to(State::kSteady);
  tracker_.select_beam(initial_rx_beam, initial_rss_dbm);
  probe_pending_.clear();
  probe_results_.clear();
  probing_now_.reset();
  best_adjacent_tx_.reset();
  request_attempts_ = 0;
  missed_ssbs_ = 0;
  rx_trend_ = 0;

  const sim::Time first_burst =
      environment_.bs(cell_).schedule().next_burst_start(simulator_.now());
  burst_event_ = simulator_.schedule_at(first_burst, [this] { on_burst(); });
}

void BeamSurfer::stop() {
  simulator_.cancel(burst_event_);
  for (const sim::EventId id : pending_events_) {
    simulator_.cancel(id);
  }
  pending_events_.clear();
  running_ = false;
}

void BeamSurfer::on_burst() {
  pending_events_.clear();
  const net::BaseStation& bs = environment_.bs(cell_);
  const net::FrameSchedule& schedule = bs.schedule();
  const phy::BeamId serving_tx = bs.serving_tx_beam();
  const auto [left_tx, right_tx] = bs.adjacent_serving_beams();

  // Decide the receive beam for this burst's serving-TX-beam slot: the
  // probe candidate if we are probing, the tracked beam otherwise.
  probing_now_.reset();
  if (state_ == State::kProbing && !probe_pending_.empty()) {
    probing_now_ = probe_pending_.front();
    probe_pending_.erase(probe_pending_.begin());
  }
  const phy::BeamId listen_beam =
      probing_now_.has_value() ? *probing_now_ : tracker_.beam();

  // Serving TX beam slot.
  const net::SsbSlot serving_slot =
      schedule.next_ssb_for_beam(simulator_.now(), serving_tx);
  pending_events_.push_back(simulator_.schedule_at(
      serving_slot.start, [this, serving_tx, listen_beam] {
        const SsbObservation obs = environment_.observe_ssb(
            cell_, serving_tx, listen_beam, simulator_.now());
        handle_serving_sample(obs);
      }));

  // Adjacent TX beam slots (same burst, tracked RX beam): the raw material
  // for a base-station-side switch decision. Skipped while probing — one
  // RF chain, and the probe slot takes priority.
  if (!probing_now_.has_value()) {
    best_adjacent_tx_.reset();
    for (const phy::BeamId tx : {left_tx, right_tx}) {
      const net::SsbSlot slot =
          schedule.next_ssb_for_beam(simulator_.now(), tx);
      pending_events_.push_back(
          simulator_.schedule_at(slot.start, [this, tx] {
            const SsbObservation obs = environment_.observe_ssb(
                cell_, tx, tracker_.beam(), simulator_.now());
            if (!obs.detected) {
              return;
            }
            if (!best_adjacent_tx_.has_value() ||
                obs.rss_dbm > best_adjacent_tx_->second) {
              best_adjacent_tx_ = {tx, obs.rss_dbm};
            }
          }));
    }
    // Rule (ii) runs at the END of the burst, once both adjacent TX
    // beams have been heard — deciding at the serving slot would always
    // miss the higher-indexed adjacent candidate.
    if (state_ == State::kRequesting) {
      pending_events_.push_back(simulator_.schedule_at(
          schedule.next_burst_start(simulator_.now()) +
              schedule.burst_duration(),
          [this] {
            if (state_ == State::kRequesting) {
              attempt_bs_switch();
            }
          }));
    }
  }

  // Next burst.
  const sim::Time next = schedule.next_burst_start(
      serving_slot.start + schedule.burst_duration());
  burst_event_ = simulator_.schedule_at(next, [this] { on_burst(); });
}

void BeamSurfer::handle_serving_sample(const SsbObservation& obs) {
  // An undetected serving SSB is itself information: the signal fell
  // below the correlator floor. Feed the floor so the filter follows the
  // collapse instead of freezing at the last good value.
  const double sample = obs.detected
                            ? obs.rss_dbm
                            : environment_.link_budget().noise_floor_dbm();

  if (emit_.tracing()) {
    emit_.emit({.t = simulator_.now(),
                .type = obs::TraceEventType::kRssSample,
                .cell = cell_,
                .beam_a = probing_now_.value_or(tracker_.beam()),
                .value = sample,
                .flag = obs.detected});
  }

  if (probing_now_.has_value()) {
    probe_results_.emplace_back(*probing_now_, sample);
    if (probe_pending_.empty()) {
      finish_probing();
    }
    return;
  }

  tracker_.add_sample(sample);
  missed_ssbs_ = obs.detected ? 0 : missed_ssbs_ + 1;

  switch (state_) {
    case State::kSteady:
      // The drop rule, plus out-of-sync detection: a run of undetected
      // serving SSBs means the link collapsed past what the RSS filter
      // (parked at the noise floor) can express as a further drop.
      if (tracker_.drop_detected() || missed_ssbs_ >= config_.missed_ssb_limit) {
        emit_.count(obs::ProtocolCounter::kServingDropEvents);
        emit_.emit({.t = simulator_.now(),
                    .type = obs::TraceEventType::kRssDrop,
                    .cell = cell_,
                    .value = tracker_.filtered_rss_dbm(),
                    .value2 = tracker_.reference_rss_dbm()});
        transition_to(State::kProbing);
        // Probe the adjacent beams AND re-measure the current one: the
        // filtered value lags the channel, and comparing a fresh candidate
        // sample against a stale filter causes spurious switches. Under a
        // steady drift only the trend side is probed (one burst less lag).
        const phy::Codebook& cb = environment_.ue_codebook();
        if (rx_trend_ < 0) {
          probe_pending_ = {cb.left_neighbour(tracker_.beam()),
                            tracker_.beam()};
        } else if (rx_trend_ > 0) {
          probe_pending_ = {cb.right_neighbour(tracker_.beam()),
                            tracker_.beam()};
        } else {
          probe_pending_ = {cb.left_neighbour(tracker_.beam()),
                            cb.right_neighbour(tracker_.beam()),
                            tracker_.beam()};
        }
        probe_results_.clear();
      }
      break;
    case State::kRequesting:
      break;  // the end-of-burst event runs the request

    case State::kProbing:
      break;  // waiting for probe slots
  }
}

void BeamSurfer::finish_probing() {
  const auto best = std::max_element(
      probe_results_.begin(), probe_results_.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });

  if (best != probe_results_.end()) {
    ST_INVARIANT(invariants::check_beam_in_codebook(
        "winning serving rx beam", best->first,
        environment_.ue_codebook().size()));
    if (best->first != tracker_.beam()) {
      emit_.emit({.t = simulator_.now(),
                  .type = obs::TraceEventType::kRxBeamSwitch,
                  .cell = cell_,
                  .beam_a = tracker_.beam(),
                  .beam_b = best->first,
                  .value = best->second});
      emit_.count(obs::ProtocolCounter::kServingRxSwitches);
      rx_trend_ = best->first == environment_.ue_codebook().left_neighbour(
                                     tracker_.beam())
                      ? -1
                      : 1;
    } else {
      rx_trend_ = 0;  // the trend stalled; probe both sides next time
    }
    // Adopt the winner (possibly the current beam at its fresh level) but
    // keep the pre-drop reference: if even the best beam is still 3 dB
    // below it, receive-side adaptation "no longer suffices" and the
    // check below escalates to the base-station adjustment.
    tracker_.select_beam(best->first, best->second,
                         tracker_.reference_rss_dbm());
  }

  probing_now_.reset();
  probe_results_.clear();

  // Rule (ii) trigger: mobile-side adjustment no longer suffices —
  // either the drop persists, or the serving SSBs are not even being
  // detected any more.
  if (tracker_.drop_detected() || missed_ssbs_ >= config_.missed_ssb_limit) {
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
      cell_, tracker_.beam(), environment_.bs(cell_).serving_tx_beam(),
      simulator_.now());
  if (delivered) {
    request_attempts_ = 0;
    transition_to(State::kSteady);
    const bool candidate_better =
        best_adjacent_tx_.has_value() &&
        best_adjacent_tx_->second >
            tracker_.filtered_rss_dbm() + config_.probe_margin_db;
    if (candidate_better) {
      const phy::BeamId new_tx = best_adjacent_tx_->first;
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
      tracker_.select_beam(tracker_.beam(), best_adjacent_tx_->second);
    } else {
      // The base station heard us but has nothing better adjacent: the
      // loss is the channel's. Accept the current level as the new
      // baseline so the drop rule measures future degradation.
      tracker_.select_beam(tracker_.beam(), tracker_.filtered_rss_dbm());
    }
    return;
  }
  if (request_attempts_ >= config_.max_request_attempts) {
    emit_.emit({.t = simulator_.now(),
                .type = obs::TraceEventType::kServingUnreachable,
                .cell = cell_});
    emit_.count(obs::ProtocolCounter::kServingUnreachable);
    transition_to(State::kSteady);  // keep sampling; the owner decides
    request_attempts_ = 0;
    if (on_unreachable_) {
      on_unreachable_();
    }
  }
}

}  // namespace st::core
