#include "core/beam_track.hpp"

#include <algorithm>

namespace st::core {

void plan_adjacent_probe(const phy::Codebook& codebook, phy::BeamId current,
                         int rx_trend, std::vector<phy::BeamId>& out) {
  if (rx_trend < 0) {
    out = {codebook.left_neighbour(current), current};
  } else if (rx_trend > 0) {
    out = {codebook.right_neighbour(current), current};
  } else {
    out = {codebook.left_neighbour(current), codebook.right_neighbour(current),
           current};
  }
}

BeamTrack::BeamTrack(sim::Simulator& simulator,
                     net::RadioEnvironment& environment,
                     const RssTrackerConfig& tracker, const obs::Emitter& emit,
                     obs::ProtocolCounter rx_switches)
    : simulator_(simulator),
      environment_(environment),
      emit_(emit),
      rx_switches_(rx_switches),
      rss_(tracker) {}

void BeamTrack::stop() {
  simulator_.cancel(burst_event_);
  for (const sim::EventId id : burst_events_) {
    simulator_.cancel(id);
  }
  burst_events_.clear();
}

std::vector<phy::BeamId>& BeamTrack::plan_round() {
  probe_results_.clear();
  return probe_pending_;
}

void BeamTrack::adopt(const BeamSample& winner, bool keep_reference) {
  const phy::BeamId current = rss_.beam();
  if (winner.beam != current) {
    emit_.emit({.t = simulator_.now(),
                .type = obs::TraceEventType::kRxBeamSwitch,
                .cell = cell_,
                .beam_a = current,
                .beam_b = winner.beam,
                .value = winner.rss_dbm});
    emit_.count(rx_switches_);
    const phy::BeamId left = environment_.ue_codebook().left_neighbour(current);
    rx_trend_ = winner.beam == left ? -1 : 1;
  } else {
    rx_trend_ = 0;  // the trend stalled; probe both sides next time
  }
  rss_.select_beam(winner.beam, winner.rss_dbm,
                   keep_reference ? rss_.reference_rss_dbm() : winner.rss_dbm);
}

void BeamTrack::adopt_adjacent_tx() {
  tx_ = best_adjacent_tx_->beam;
  rss_.select_beam(rss_.beam(), best_adjacent_tx_->rss_dbm);
}

void BeamTrack::schedule_in_burst(sim::Time when, sim::EventFn fn) {
  burst_events_.push_back(simulator_.schedule_at(when, std::move(fn)));
}

double BeamTrack::take_sample(const net::SsbObservation& obs) {
  const double sample = obs.detected
                            ? obs.rss_dbm
                            : environment_.link_budget().noise_floor_dbm();
  if (emit_.tracing()) {
    emit_.emit({.t = simulator_.now(),
                .type = obs::TraceEventType::kRssSample,
                .cell = cell_,
                .beam_a = probing_now_.value_or(rss_.beam()),
                .value = sample,
                .flag = obs.detected});
  }
  return sample;
}

std::optional<BeamSample> BeamTrack::conclude_round() {
  const auto best = std::max_element(
      probe_results_.begin(), probe_results_.end(),
      [](const BeamSample& a, const BeamSample& b) {
        return a.rss_dbm < b.rss_dbm;
      });
  std::optional<BeamSample> winner;
  if (best != probe_results_.end()) {
    winner = *best;
  }
  probing_now_.reset();
  probe_results_.clear();
  return winner;
}

}  // namespace st::core
