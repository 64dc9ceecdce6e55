#include "core/silent_tracker.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"
#include "core/invariants.hpp"

namespace st::core {

namespace {
using net::SsbObservation;
using sim::Duration;
using sim::Time;
}  // namespace

std::string_view to_string(SilentTrackerState state) noexcept {
  switch (state) {
    case SilentTrackerState::kIdle:
      return "Idle";
    case SilentTrackerState::kSearching:
      return "InitialSearch";
    case SilentTrackerState::kTracking:
      return "Tracking";
    case SilentTrackerState::kAccessing:
      return "Accessing";
    case SilentTrackerState::kFallbackSearch:
      return "FallbackSearch";
    case SilentTrackerState::kComplete:
      return "Complete";
    case SilentTrackerState::kFailed:
      return "Failed";
  }
  return "?";
}

void SilentTracker::transition_to(SilentTrackerState next) {
  ST_INVARIANT(invariants::check_silent_tracker_transition(state_, next));
  state_ = next;
}

SilentTracker::SilentTracker(sim::Simulator& simulator,
                             net::RadioEnvironment& environment,
                             ProtocolConfig config, BeamPolicy& policy)
    : simulator_(simulator),
      environment_(environment),
      config_(config),
      track_(simulator, environment, config.rss_rule, emit_,
             obs::ProtocolCounter::kNeighbourRxSwitches),
      beamsurfer_(simulator, environment, config.rss_rule, config.beamsurfer),
      policy_(policy) {
  if (environment.cell_count() < 2) {
    throw std::invalid_argument(
        "SilentTracker: needs a serving cell and at least one neighbour");
  }
  beamsurfer_.set_loss_callback(
      [this](std::string_view reason) { on_serving_lost(reason); });
}

SilentTracker::~SilentTracker() { stop(); }

void SilentTracker::set_decision(net::HandoverDecision* decision) {
  if (state_ != SilentTrackerState::kIdle) {
    throw std::logic_error(
        "SilentTracker: set_decision before start(), not mid-run");
  }
  decision_ = decision;
}

void SilentTracker::start(net::CellId serving_cell,
                          phy::BeamId serving_rx_beam, double serving_rss_dbm,
                          HandoverCallback on_handover) {
  if (state_ != SilentTrackerState::kIdle) {
    throw std::logic_error("SilentTracker: already started");
  }
  if (on_handover == nullptr) {
    throw std::invalid_argument("SilentTracker: null handover callback");
  }
  serving_ = serving_cell;
  on_handover_ = std::move(on_handover);
  serving_alive_ = true;
  fallback_rounds_ = 0;
  record_ = net::HandoverRecord{};
  record_.from = serving_cell;

  beamsurfer_.set_sinks(emit_.sinks);
  beamsurfer_.start(serving_cell, serving_rx_beam, serving_rss_dbm);
  enter_searching();
}

void SilentTracker::stop() {
  cancel_tracking_events();
  beamsurfer_.stop();
  if (search_ != nullptr) {
    search_->abort();
  }
  if (rach_ != nullptr) {
    rach_->abort();
  }
  transition_to(SilentTrackerState::kIdle);
  on_handover_ = nullptr;
}

bool SilentTracker::radio_busy(sim::Time t) const {
  // While the serving cell is alive, its SSB slots own the RF chain
  // (BeamSurfer measurements and the data link the mobile is protecting).
  if (!serving_alive_) {
    return false;
  }
  return environment_.bs(serving_).schedule().ssb_at(t).has_value();
}

void SilentTracker::cancel_tracking_events() {
  track_.stop();
  simulator_.cancel(rival_scan_event_);
  for (const sim::EventId id : rival_obs_events_) {
    simulator_.cancel(id);
  }
  rival_obs_events_.clear();
}

// ---- Initial search ------------------------------------------------------

void SilentTracker::enter_searching() {
  transition_to(SilentTrackerState::kSearching);
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kStateTransition,
              .label = "InitialSearch"});

  // The deployment's declared candidate set of the serving cell — for
  // the paper's row layouts this is every other cell in CellId order,
  // identical to the historical construction.
  std::vector<net::CellId> candidates = environment_.neighbour_cells(serving_);
  search_ = std::make_unique<net::CellSearch>(
      simulator_, environment_, std::move(candidates), config_.search,
      [this](sim::Time t) { return radio_busy(t); });
  search_->set_sinks(emit_.sinks);
  search_->start([this](const net::SearchOutcome& o) { on_search_done(o); });
}

void SilentTracker::on_search_done(const net::SearchOutcome& outcome) {
  if (state_ != SilentTrackerState::kSearching) {
    return;
  }
  if (!outcome.found) {
    emit_.count(obs::ProtocolCounter::kInitialSearchMisses);
    // Fig. 2b: keep searching until a neighbour beam is discovered (or
    // the serving link dies, which routes to the fallback path).
    enter_searching();
    return;
  }

  // The mobile prepares the neighbour it *should* join (with a decision
  // layer), not merely the loudest.
  const std::optional<net::SsbObservation> chosen =
      pick_detection(outcome, serving_alive_);
  if (!chosen.has_value()) {
    // Every detection was penalized (or off-list): per the penalty rule
    // nothing is selectable yet — keep searching until a timer expires or
    // another cell appears.
    emit_.count(obs::ProtocolCounter::kPolicyNoEligibleCandidate);
    enter_searching();
    return;
  }
  if (chosen->cell != outcome.cell) {
    emit_.count(obs::ProtocolCounter::kPolicySelectionDiverted);
  }
  if (policy_active()) {
    ST_INVARIANT(invariants::check_decision_in_neighbor_list(
        serving_, chosen->cell, environment_.neighbour_cells(serving_)));
    ST_INVARIANT(invariants::check_decision_not_penalized(
        chosen->cell, decision_->penalized(chosen->cell, simulator_.now()),
        serving_alive_));
  }

  emit_.count(obs::ProtocolCounter::kInitialSearchHits);
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kCellFound,
              .cell = chosen->cell,
              .beam_a = chosen->tx_beam,
              .beam_b = chosen->rx_beam,
              .value = chosen->rss_dbm,
              .value2 = outcome.latency.ms()});
  enter_tracking(chosen->cell, chosen->tx_beam, chosen->rx_beam,
                 chosen->rss_dbm);
}

std::optional<net::SsbObservation> SilentTracker::pick_detection(
    const net::SearchOutcome& outcome, bool serving_alive) {
  if (!policy_active()) {
    return net::SsbObservation{.t = simulator_.now(),
                               .cell = outcome.cell,
                               .tx_beam = outcome.tx_beam,
                               .rx_beam = outcome.rx_beam,
                               .rss_dbm = outcome.rss_dbm};
  }
  // Load-penalized score, penalized cells excluded, ties to the lower
  // CellId.
  for (const net::SsbObservation& obs : outcome.all) {
    decision_->observe(obs);
  }
  const std::optional<std::size_t> pick =
      decision_->select(outcome.all, environment_.neighbour_cells(serving_),
                        simulator_.now(), serving_alive);
  if (!pick.has_value()) {
    return std::nullopt;
  }
  return outcome.all[*pick];
}

// ---- Silent tracking -----------------------------------------------------

void SilentTracker::enter_tracking(net::CellId cell, phy::BeamId tx_beam,
                                   phy::BeamId rx_beam, double rss_dbm) {
  transition_to(SilentTrackerState::kTracking);
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kStateTransition,
              .label = "Tracking"});
  retarget_votes_ = 0;
  missed_tracked_ = 0;
  in_recovery_sweep_ = false;
  neighbour_quiet_since_.reset();
  policy_.reset();
  // Tracking persists through kAccessing so the beam is live until Msg4
  // — the protocol's whole purpose.
  track_.start(*this, cell, tx_beam, rx_beam, rss_dbm);

  // With a decision layer, keep the rivals' scores fresh in the
  // background so the crossover test has something to compare against.
  if (policy_active() && serving_alive_) {
    schedule_rival_scan();
  }
}

// One rival candidate per scan period: pick the next neighbour-list cell
// round-robin, listen to one full SSB burst of it (every TX beam, on the
// best RX beam known for that cell) in the slots the serving schedule
// leaves free, then run the crossover test on the refreshed table.
void SilentTracker::schedule_rival_scan() {
  rival_scan_event_ = simulator_.schedule_at(
      simulator_.now() + decision_->config().rival_scan_period,
      [this] { on_rival_scan(); });
}

void SilentTracker::on_rival_scan() {
  if (state_ != SilentTrackerState::kTracking || !serving_alive_) {
    return;
  }
  rival_obs_events_.clear();
  const net::NeighborList& neighbors = environment_.neighbour_cells(serving_);
  const std::optional<net::CellId> rival =
      decision_->next_rival(neighbors, track_.cell());
  if (rival.has_value()) {
    const net::CellId cell = *rival;
    // A cell heard before is listened to on the beam that heard it; a
    // cold one on the currently tracked beam (the best guess available
    // without spending a sweep).
    const std::optional<net::HandoverDecision::Candidate> known =
        decision_->candidate(cell);
    const phy::BeamId rx = (known.has_value() &&
                            known->rx_beam != phy::kInvalidBeam)
                               ? known->rx_beam
                               : track_.rss().beam();
    const net::FrameSchedule& schedule = environment_.bs(cell).schedule();
    const Time burst = schedule.next_burst_start(simulator_.now());
    for (const phy::Beam& beam : environment_.bs(cell).codebook().beams()) {
      const net::SsbSlot slot = schedule.next_ssb_for_beam(burst, beam.id());
      rival_obs_events_.push_back(simulator_.schedule_at(
          slot.start, [this, cell, tx = beam.id(), rx] {
            if (state_ != SilentTrackerState::kTracking || !serving_alive_) {
              return;
            }
            if (radio_busy(simulator_.now())) {
              emit_.count(obs::ProtocolCounter::kRivalSlotsPreempted);
              return;
            }
            const SsbObservation obs =
                environment_.observe_ssb(cell, tx, rx, simulator_.now());
            if (obs.detected) {
              decision_->observe(obs);
            }
          }));
    }
    rival_obs_events_.push_back(
        simulator_.schedule_at(burst + schedule.burst_duration(),
                               [this] { check_crossover(); }));
  }
  schedule_rival_scan();
}

void SilentTracker::check_crossover() {
  if (!policy_active() || state_ != SilentTrackerState::kTracking ||
      !serving_alive_) {
    return;
  }
  const std::optional<net::HandoverDecision::Choice> winner =
      decision_->crossover(track_.cell(), track_.rss().filtered_rss_dbm(),
                           environment_.neighbour_cells(serving_),
                           simulator_.now());
  if (!winner.has_value()) {
    return;
  }
  emit_.count(obs::ProtocolCounter::kNeighbourCrossovers);
  // Fig. 2b stays normative: the crossover is the Tracking ->
  // InitialSearch "abandon" edge, and the fresh search's ranked
  // selection is what actually retargets (the rival must still be
  // *found*, not just remembered).
  abandon_tracked("crossover");
}

void SilentTracker::abandon_tracked(std::string_view reason,
                                    double quiet_ms) {
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kNeighbourAbandoned,
              .cell = track_.cell(),
              .value = quiet_ms,
              .label = reason});
  emit_.count(obs::ProtocolCounter::kNeighbourAbandoned);
  cancel_tracking_events();
  neighbour_quiet_since_.reset();
  enter_searching();
}

// The neighbour loop's rules. Adjacent TX beams of the same burst,
// heard on the tracked RX beam, are how the tracker follows the
// neighbour's beam drift silently: SSBs are broadcast, so no interaction
// with the cell is needed.
void SilentTracker::on_tracked_sample(bool detected) {
  const net::CellId neighbour = track_.cell();
  RssTracker& rss = track_.rss();
  missed_tracked_ = detected ? 0 : missed_tracked_ + 1;
  if (policy_active()) {
    // Keep the incumbent's table entry at the filtered level so the
    // crossover test compares rivals against what tracking actually sees.
    decision_->update_rss(neighbour, rss.filtered_rss_dbm(), simulator_.now());
  }

  // Track how long the neighbour has been inaudible. A beam that stays at
  // the correlator floor despite recovery sweeps is no discovered beam at
  // all: abandon it and search again (only while the serving cell still
  // carries us — once in Accessing, the tracked beam is all we have).
  if (detected) {
    neighbour_quiet_since_.reset();
  } else if (!neighbour_quiet_since_.has_value()) {
    neighbour_quiet_since_ = simulator_.now();
  } else if (state_ == SilentTrackerState::kTracking && serving_alive_ &&
             simulator_.now() - *neighbour_quiet_since_ >=
                 config_.neighbour_abandon_after) {
    abandon_tracked({}, (simulator_.now() - *neighbour_quiet_since_).ms());
    return;
  }

  // TX-beam drift: an adjacent SSB consistently stronger than the tracked
  // one (two bursts in a row) retargets the tracked TX beam.
  if (track_.adjacent_tx_beats(config_.tx_retarget_margin_db)) {
    if (++retarget_votes_ >= 2) {
      emit_.emit({.t = simulator_.now(),
                  .type = obs::TraceEventType::kTxBeamSwitch,
                  .cell = neighbour,
                  .beam_a = track_.tx_beam(),
                  .beam_b = track_.best_adjacent_tx()->beam});
      emit_.count(obs::ProtocolCounter::kNeighbourTxRetargets);
      track_.adopt_adjacent_tx();
      retarget_votes_ = 0;
      return;
    }
  } else {
    retarget_votes_ = 0;
  }

  // The 3 dB rule on the neighbour, plus out-of-sync detection (a filter
  // parked at the noise floor cannot fall a further 3 dB): queue probes
  // of the adjacent RX beams.
  if ((rss.drop_detected() || missed_tracked_ >= 3) && !track_.probe_queued()) {
    ST_INVARIANT(invariants::check_drop_on_tracked_beam(
        state_, rss.beam(), environment_.ue_codebook().size()));
    const bool lost = missed_tracked_ >= 3;
    missed_tracked_ = 0;
    emit_.count(obs::ProtocolCounter::kNeighbourDropEvents);
    emit_.emit({.t = simulator_.now(),
                .type = obs::TraceEventType::kRssDrop,
                .cell = neighbour,
                .value = rss.filtered_rss_dbm(),
                .value2 = rss.reference_rss_dbm()});
    policy_.plan_probe({.codebook = environment_.ue_codebook(),
                        .current = rss.beam(),
                        .filtered_rss_dbm = rss.filtered_rss_dbm(),
                        .rx_trend = track_.rx_trend(),
                        .lost = lost},
                       track_.plan_round());
  }
}

void SilentTracker::on_round_done(std::optional<BeamSample> winner) {
  // Every candidate at the correlator floor: the beam is lost beyond what
  // adjacent stepping can recover (a 120 deg/s rotation outruns
  // one-beam-per-round chasing). Escalate once to a full-codebook sweep —
  // the in-band analogue of NR beam-failure recovery. If even the sweep
  // concludes at the floor, the neighbour is gone for now: re-baseline
  // and let the missed-SSB counter retrigger probing later.
  const double lost_level = environment_.link_budget().noise_floor_dbm() + 1.0;
  if (!winner.has_value() || winner->rss_dbm <= lost_level) {
    if (!in_recovery_sweep_) {
      in_recovery_sweep_ = true;
      emit_.count(obs::ProtocolCounter::kNeighbourRecoverySweeps);
      emit_.emit({.t = simulator_.now(),
                  .type = obs::TraceEventType::kRecoverySweep,
                  .cell = track_.cell()});
      std::vector<phy::BeamId>& plan = track_.plan_round();
      plan.reserve(environment_.ue_codebook().size());
      for (const phy::Beam& beam : environment_.ue_codebook().beams()) {
        plan.push_back(beam.id());
      }
      track_.clear_trend();
    } else {
      in_recovery_sweep_ = false;
      RssTracker& rss = track_.rss();
      rss.select_beam(rss.beam(), rss.filtered_rss_dbm());
    }
    return;
  }
  in_recovery_sweep_ = false;

  // Before adopting, let the policy ask for another round (hierarchical
  // coarse-to-fine refines one narrower ring around the coarse winner).
  // The default policy never does, keeping the historical single-round
  // behaviour — and its fingerprint — intact.
  const RssTracker& rss = track_.rss();
  policy_.plan_refine({.codebook = environment_.ue_codebook(),
                       .current = rss.beam(),
                       .filtered_rss_dbm = rss.filtered_rss_dbm(),
                       .rx_trend = track_.rx_trend(),
                       .lost = false},
                      winner->beam, track_.plan_round());
  if (track_.probe_queued()) {
    emit_.count(obs::ProtocolCounter::kProbeRefineRounds);
    return;
  }

  // A current beam that wins its own round *is* the best the mobile can
  // do and the loss is the channel's (distance, blockage): re-baseline at
  // the fresh level so the drop rule measures future degradation instead
  // of re-firing every burst on the same loss.
  track_.adopt(*winner, /*keep_reference=*/false);
}

// ---- Serving loss and access ---------------------------------------------

void SilentTracker::on_serving_lost(std::string_view reason) {
  serving_alive_ = false;
  record_.serving_lost = simulator_.now();
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kServingLost,
              .cell = serving_,
              .label = reason});
  emit_.count(obs::ProtocolCounter::kServingLost);

  switch (state_) {
    case SilentTrackerState::kTracking:
      enter_accessing();
      break;
    case SilentTrackerState::kSearching:
      // Nothing tracked yet: this is the hard-handover case the protocol
      // exists to avoid, reached only when the edge was crossed before
      // initial search ever succeeded.
      search_->abort();
      enter_fallback();
      break;
    default:
      break;  // kAccessing and beyond: already past the serving cell
  }
}

void SilentTracker::enter_accessing() {
  const net::CellId neighbour = track_.cell();
  ST_INVARIANT(invariants::check_rach_entry(
      neighbour, serving_, track_.tx_beam(),
      environment_.bs(neighbour).codebook().size(), track_.rss().beam(),
      environment_.ue_codebook().size()));
  transition_to(SilentTrackerState::kAccessing);
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kStateTransition,
              .cell = neighbour,
              .beam_a = track_.tx_beam(),
              .beam_b = track_.rss().beam(),
              .label = "Accessing"});
  record_.to = neighbour;
  record_.access_started = simulator_.now();

  rach_ = std::make_unique<net::RachProcedure>(simulator_, environment_,
                                               config_.rach);
  rach_->set_sinks(emit_.sinks);
  rach_->start(
      neighbour, track_.tx_beam(), [this] { return track_.rss().beam(); },
      [this](const net::RachOutcome& o) { on_rach_done(o); });
}

void SilentTracker::on_rach_done(const net::RachOutcome& outcome) {
  record_.rach_attempts += outcome.attempts;
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kRachOutcome,
              .cell = track_.cell(),
              .value = static_cast<double>(outcome.attempts),
              .value2 = outcome.latency.ms(),
              .flag = outcome.success});
  if (outcome.success) {
    complete(true);
    return;
  }
  emit_.count(obs::ProtocolCounter::kRachFailures);
  enter_fallback();
}

// ---- Hard-handover fallback ------------------------------------------------

void SilentTracker::enter_fallback() {
  cancel_tracking_events();
  ST_INVARIANT(invariants::check_handover_type_transition(
      record_.type, net::HandoverType::kHard));
  record_.type = net::HandoverType::kHard;
  if (fallback_rounds_ >= config_.max_rounds) {
    complete(false);
    return;
  }
  ++fallback_rounds_;
  transition_to(SilentTrackerState::kFallbackSearch);
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kStateTransition,
              .label = "FallbackSearch"});
  emit_.count(obs::ProtocolCounter::kFallbackSearches);

  // Even with the serving cell gone, the candidate set is the
  // deployment's declared neighbour list of the last serving cell (the
  // row layouts list every other cell there, so the paper presets are
  // unchanged).
  std::vector<net::CellId> candidates = environment_.neighbour_cells(serving_);
  // No serving cell, no pre-emption: the radio is entirely free — but the
  // user has no service either.
  search_ = std::make_unique<net::CellSearch>(
      simulator_, environment_, std::move(candidates), config_.search);
  search_->set_sinks(emit_.sinks);
  search_->start(
      [this](const net::SearchOutcome& o) { on_fallback_search_done(o); });
}

void SilentTracker::on_fallback_search_done(const net::SearchOutcome& outcome) {
  if (!outcome.found) {
    enter_fallback();  // consumes another round
    return;
  }
  // With no serving link, penalty timers are waived (any cell beats no
  // cell) but load still ranks equal-RSS candidates.
  const std::optional<net::SsbObservation> chosen =
      pick_detection(outcome, /*serving_alive=*/false);
  if (!chosen.has_value()) {
    enter_fallback();  // consumes another round
    return;
  }
  if (policy_active()) {
    ST_INVARIANT(invariants::check_decision_in_neighbor_list(
        serving_, chosen->cell, environment_.neighbour_cells(serving_)));
  }
  // Resume tracking during access so the fallback access still benefits
  // from receive-beam adaptation.
  enter_tracking(chosen->cell, chosen->tx_beam, chosen->rx_beam,
                 chosen->rss_dbm);
  enter_accessing();
}

// ---- Completion ------------------------------------------------------------

void SilentTracker::complete(bool success) {
  cancel_tracking_events();
  record_.success = success;
  record_.completed = simulator_.now();
  record_.target_tx_beam = track_.tx_beam();
  record_.final_rx_beam = track_.rss().beam();
  transition_to(success ? SilentTrackerState::kComplete
                        : SilentTrackerState::kFailed);
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kHandoverComplete,
              .cell = record_.to,
              .beam_b = record_.final_rx_beam,
              .value = record_.interruption().ms(),
              .flag = success});
  emit_.count(success ? obs::ProtocolCounter::kHandoverComplete
                      : obs::ProtocolCounter::kHandoverFailed);
  if (on_handover_) {
    HandoverCallback cb = std::move(on_handover_);
    on_handover_ = nullptr;
    cb(record_);
  }
}

}  // namespace st::core
