#include "net/cell_search.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace st::net {

CellSearch::CellSearch(sim::Simulator& simulator,
                       RadioEnvironment& environment,
                       std::vector<CellId> candidate_cells,
                       CellSearchConfig config, BusyPredicate busy)
    : simulator_(simulator),
      environment_(environment),
      candidates_(std::move(candidate_cells)),
      config_(config),
      busy_(std::move(busy)) {
  if (candidates_.empty()) {
    throw std::invalid_argument("CellSearch: no candidate cells");
  }
  if (config.dwell <= sim::Duration{} || config.budget <= sim::Duration{}) {
    throw std::invalid_argument("CellSearch: dwell and budget must be positive");
  }
}

void CellSearch::start(Callback on_done) {
  if (running_) {
    throw std::logic_error("CellSearch: already running");
  }
  if (on_done == nullptr) {
    throw std::invalid_argument("CellSearch: callback must not be null");
  }
  running_ = true;
  on_done_ = std::move(on_done);
  started_ = simulator_.now();
  dwells_used_ = 0;
  current_rx_beam_ = config_.start_rx_beam %
                     static_cast<phy::BeamId>(environment_.ue_codebook().size());
  if (emit_.tracing()) {
    emit_.emit({.t = simulator_.now(),
                .type = obs::TraceEventType::kSearchStart,
                .value = static_cast<double>(candidates_.size())});
  }
  begin_dwell();
}

void CellSearch::abort() {
  for (const sim::EventId id : pending_events_) {
    simulator_.cancel(id);
  }
  pending_events_.clear();
  running_ = false;
  on_done_ = nullptr;
}

void CellSearch::begin_dwell() {
  dwell_detections_.clear();
  dwell_end_ = simulator_.now() + config_.dwell;
  ++dwells_used_;
  if (emit_.tracing()) {
    emit_.emit({.t = simulator_.now(),
                .type = obs::TraceEventType::kSearchDwell,
                .beam_a = current_rx_beam_,
                .value = static_cast<double>(dwells_used_)});
  }
  schedule_observations();
  pending_events_.push_back(
      simulator_.schedule_at(dwell_end_, [this] { finish_dwell(); }));
}

void CellSearch::schedule_observations() {
  // Schedule one observation per SSB slot of every candidate cell that
  // falls inside this dwell. The protocol does not know these times; it
  // only ever sees the resulting detections. The closure holds only what
  // the callback needs (the slot's instant is the simulator's now), so it
  // fits std::function's inline storage: no allocation per slot.
  for (const CellId cell : candidates_) {
    const FrameSchedule& schedule = environment_.bs(cell).schedule();
    SsbSlot slot = schedule.next_ssb(simulator_.now());
    while (slot.start < dwell_end_) {
      const phy::BeamId tx = slot.tx_beam;
      pending_events_.push_back(simulator_.schedule_at(slot.start, [this, cell,
                                                                    tx] {
        if (busy_ && busy_(simulator_.now())) {
          return;  // radio pre-empted by the serving cell
        }
        const SsbObservation obs = environment_.observe_ssb(
            cell, tx, current_rx_beam_, simulator_.now());
        if (obs.detected) {
          dwell_detections_.push_back(obs);
        }
      }));
      slot = schedule.next_ssb(slot.start + schedule.config().slot);
    }
  }
}

void CellSearch::finish_dwell() {
  pending_events_.clear();
  if (!dwell_detections_.empty()) {
    const auto best = std::max_element(
        dwell_detections_.begin(), dwell_detections_.end(),
        [](const SsbObservation& a, const SsbObservation& b) {
          return a.rss_dbm < b.rss_dbm;
        });
    SearchOutcome outcome;
    outcome.found = true;
    outcome.cell = best->cell;
    outcome.tx_beam = best->tx_beam;
    outcome.rx_beam = current_rx_beam_;
    outcome.rss_dbm = best->rss_dbm;
    outcome.latency = simulator_.now() - started_;
    outcome.dwells_used = dwells_used_;
    outcome.detections = static_cast<unsigned>(dwell_detections_.size());
    outcome.all = dwell_detections_;
    conclude(outcome);
    return;
  }

  // Nothing found with this beam: advance (cyclically) and re-dwell unless
  // the next dwell would overrun the budget.
  if (simulator_.now() + config_.dwell > started_ + config_.budget) {
    SearchOutcome outcome;
    outcome.found = false;
    outcome.latency = simulator_.now() - started_;
    outcome.dwells_used = dwells_used_;
    conclude(outcome);
    return;
  }
  const auto n = static_cast<phy::BeamId>(environment_.ue_codebook().size());
  current_rx_beam_ = static_cast<phy::BeamId>((current_rx_beam_ + 1) % n);
  begin_dwell();
}

void CellSearch::conclude(const SearchOutcome& outcome) {
  running_ = false;
  if (emit_.tracing()) {
    obs::TraceEvent e;
    e.t = simulator_.now();
    e.type = obs::TraceEventType::kSearchOutcome;
    e.flag = outcome.found;
    e.value = outcome.rss_dbm;
    e.value2 = outcome.latency.ms();
    if (outcome.found) {
      e.cell = outcome.cell;
      e.beam_a = outcome.tx_beam;
      e.beam_b = outcome.rx_beam;
    }
    emit_.emit(e);
  }
  Callback cb = std::move(on_done_);
  on_done_ = nullptr;
  cb(outcome);
}

}  // namespace st::net
