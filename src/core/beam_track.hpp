// BeamTrack — the one beam-tracking loop both links run.
//
// The paper applies one rule to both links: when RSS drops 3 dB, probe the
// directionally adjacent receive beams (one SSB burst each — one RF chain)
// and keep the best. BeamSurfer runs it on the serving cell, SilentTracker
// on the neighbour without any signalling; each holds a BeamTrack by value
// and keeps only its own rules. Per burst of the tracked cell the loop
// hears the tracked TX beam's slot on the next probe candidate (or on the
// tracked RX beam), then, when not probing, the two adjacent TX beams'
// slots on the tracked RX beam: the material of a TX-side switch.
//
// The owner's rules are member functions resolved at compile time, so a
// sample costs no indirect call. `Owner` befriends BeamTrack and has
// `bool radio_busy(sim::Time)` (the pre-emption gate, checked before every
// observation), `on_listening_burst()` (a burst on the tracked RX beam was
// scheduled), `on_tracked_sample(bool detected)` (the filter took a
// sample) and `on_round_done(std::optional<BeamSample> winner)` (a probe
// round concluded; no winner when every probe slot was pre-empted).
#pragma once

#include <optional>
#include <vector>

#include "core/rss_tracker.hpp"
#include "net/environment.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace st::core {

struct BeamSample {
  phy::BeamId beam = phy::kInvalidBeam;
  double rss_dbm = 0.0;
};

/// The paper's planner: the trend side under steady drift, both sides
/// otherwise, then a fresh re-measurement of `current`, so candidates
/// compete fresh-vs-fresh instead of against the lagging filter.
void plan_adjacent_probe(const phy::Codebook& codebook, phy::BeamId current,
                         int rx_trend, std::vector<phy::BeamId>& out);

class BeamTrack {
 public:
  /// Records go through the owner's `emit`; a receive-beam switch counts
  /// `rx_switches`.
  BeamTrack(sim::Simulator& simulator, net::RadioEnvironment& environment,
            const RssTrackerConfig& tracker, const obs::Emitter& emit,
            obs::ProtocolCounter rx_switches);
  BeamTrack(const BeamTrack&) = delete;  // events capture `this`
  BeamTrack& operator=(const BeamTrack&) = delete;

  /// Track `cell`'s `tx` beam, heard on `rx` at `rss_dbm`, from the
  /// cell's next burst, with no probe round and no trend.
  template <class Owner>
  void start(Owner& owner, net::CellId cell, phy::BeamId tx, phy::BeamId rx,
             double rss_dbm);
  /// Cancel the next burst and this burst's pending slots.
  void stop();

  [[nodiscard]] net::CellId cell() const noexcept { return cell_; }
  [[nodiscard]] phy::BeamId tx_beam() const noexcept { return tx_; }
  [[nodiscard]] const RssTracker& rss() const noexcept { return rss_; }
  [[nodiscard]] RssTracker& rss() noexcept { return rss_; }
  /// Side of the last receive-beam switch: -1 left, +1 right, 0 unknown.
  [[nodiscard]] int rx_trend() const noexcept { return rx_trend_; }
  void clear_trend() noexcept { rx_trend_ = 0; }
  [[nodiscard]] bool probe_queued() const noexcept {
    return !probe_pending_.empty();
  }
  /// Strongest adjacent TX beam detected in the latest burst heard on the
  /// tracked RX beam.
  [[nodiscard]] const std::optional<BeamSample>& best_adjacent_tx()
      const noexcept {
    return best_adjacent_tx_;
  }
  /// Whether best_adjacent_tx() beats the filtered RSS by `margin_db`.
  [[nodiscard]] bool adjacent_tx_beats(double margin_db) const noexcept {
    return best_adjacent_tx_.has_value() &&
           best_adjacent_tx_->rss_dbm > rss_.filtered_rss_dbm() + margin_db;
  }

  /// Start a probe round: returns the empty candidate queue to fill.
  [[nodiscard]] std::vector<phy::BeamId>& plan_round();
  /// Adopt a round's winner, restarting the filter at its level with the
  /// reference reset or kept. A switch is traced and counted and sets the
  /// trend to its side; staying clears the trend.
  void adopt(const BeamSample& winner, bool keep_reference);
  /// Retarget to best_adjacent_tx(), restarting the filter at its level.
  void adopt_adjacent_tx();
  /// Schedule `fn` within the current burst, so that stop() cancels it.
  void schedule_in_burst(sim::Time when, sim::EventFn fn);

 private:
  template <class Owner>
  void on_burst();
  template <class Owner>
  void on_tracked_slot(phy::BeamId tx, phy::BeamId listen);
  /// An undetected SSB takes the noise floor (the filter follows a
  /// collapse instead of freezing); traced as a kRssSample.
  double take_sample(const net::SsbObservation& obs);
  /// The round's argmax (first of equals); clears the round.
  std::optional<BeamSample> conclude_round();

  sim::Simulator& simulator_;
  net::RadioEnvironment& environment_;
  const obs::Emitter& emit_;
  obs::ProtocolCounter rx_switches_;
  void* owner_ = nullptr;  ///< the Owner of start<Owner>()

  net::CellId cell_ = net::kInvalidCell;
  phy::BeamId tx_ = phy::kInvalidBeam;
  RssTracker rss_;
  std::vector<phy::BeamId> probe_pending_;
  std::vector<BeamSample> probe_results_;
  std::optional<phy::BeamId> probing_now_;
  std::optional<BeamSample> best_adjacent_tx_;
  int rx_trend_ = 0;
  std::vector<sim::EventId> burst_events_;
  sim::EventId burst_event_ = 0;
};

template <class Owner>
void BeamTrack::start(Owner& owner, net::CellId cell, phy::BeamId tx,
                      phy::BeamId rx, double rss_dbm) {
  owner_ = &owner;
  cell_ = cell;
  tx_ = tx;
  rss_.select_beam(rx, rss_dbm);
  probe_pending_.clear();
  probe_results_.clear();
  probing_now_.reset();
  best_adjacent_tx_.reset();
  rx_trend_ = 0;
  const sim::Time first =
      environment_.bs(cell_).schedule().next_burst_start(simulator_.now());
  burst_event_ = simulator_.schedule_at(first, [this] { on_burst<Owner>(); });
}

template <class Owner>
void BeamTrack::on_burst() {
  burst_events_.clear();
  const net::FrameSchedule& schedule = environment_.bs(cell_).schedule();
  const sim::Time now = simulator_.now();

  probing_now_.reset();
  if (!probe_pending_.empty()) {
    probing_now_ = probe_pending_.front();
    probe_pending_.erase(probe_pending_.begin());
  }
  const phy::BeamId listen = probing_now_.value_or(rss_.beam());
  const sim::Time tracked = schedule.next_ssb_for_beam(now, tx_).start;
  burst_events_.push_back(simulator_.schedule_at(
      tracked,
      [this, tx = tx_, listen] { on_tracked_slot<Owner>(tx, listen); }));

  if (!probing_now_.has_value()) {
    best_adjacent_tx_.reset();
    const phy::Codebook& tx_codebook = environment_.bs(cell_).codebook();
    for (const phy::BeamId tx :
         {tx_codebook.left_neighbour(tx_), tx_codebook.right_neighbour(tx_)}) {
      const auto on_slot = [this, tx] {
        const sim::Time t = simulator_.now();
        if (static_cast<Owner*>(owner_)->radio_busy(t)) {
          return;
        }
        const net::SsbObservation obs =
            environment_.observe_ssb(cell_, tx, rss_.beam(), t);
        if (obs.detected && (!best_adjacent_tx_.has_value() ||
                             obs.rss_dbm > best_adjacent_tx_->rss_dbm)) {
          best_adjacent_tx_ = BeamSample{tx, obs.rss_dbm};
        }
      };
      burst_events_.push_back(simulator_.schedule_at(
          schedule.next_ssb_for_beam(now, tx).start, on_slot));
    }
    static_cast<Owner*>(owner_)->on_listening_burst();
  }

  const sim::Time next =
      schedule.next_burst_start(tracked + schedule.burst_duration());
  burst_event_ = simulator_.schedule_at(next, [this] { on_burst<Owner>(); });
}

template <class Owner>
void BeamTrack::on_tracked_slot(phy::BeamId tx, phy::BeamId listen) {
  Owner& owner = *static_cast<Owner*>(owner_);
  const sim::Time now = simulator_.now();
  if (owner.radio_busy(now)) {
    // Only the neighbour loop has a gate: the serving cell's slots.
    emit_.count(obs::ProtocolCounter::kNeighbourSlotsPreempted);
    return;
  }
  const net::SsbObservation obs =
      environment_.observe_ssb(cell_, tx, listen, now);
  const double sample = take_sample(obs);
  if (!probing_now_.has_value()) {
    rss_.add_sample(sample);
    owner.on_tracked_sample(obs.detected);
    return;
  }
  probe_results_.push_back({*probing_now_, sample});
  if (probe_pending_.empty()) {
    owner.on_round_done(conclude_round());
  }
}

}  // namespace st::core
