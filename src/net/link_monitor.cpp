#include "net/link_monitor.hpp"

#include <stdexcept>
#include <utility>

#include "common/contracts.hpp"
#include "common/logging.hpp"

namespace st::net {

LinkMonitor::LinkMonitor(sim::Simulator& simulator,
                         RadioEnvironment& environment,
                         LinkMonitorConfig config)
    : simulator_(simulator), environment_(environment), config_(config) {
  if (config.check_period <= sim::Duration{} ||
      config.failure_window <= sim::Duration{}) {
    throw std::invalid_argument("LinkMonitor: periods must be positive");
  }
}

void LinkMonitor::start(CellId cell, BeamProvider ue_beam,
                        FailureCallback on_failure) {
  if (running_) {
    throw std::logic_error("LinkMonitor: already monitoring");
  }
  if (ue_beam == nullptr || on_failure == nullptr) {
    throw std::invalid_argument("LinkMonitor: null callback");
  }
  running_ = true;
  cell_ = cell;
  ue_beam_ = std::move(ue_beam);
  on_failure_ = std::move(on_failure);
  below_since_.reset();
  hold_until_ = sim::Time{};
  check();
}

void LinkMonitor::stop() {
  simulator_.cancel(tick_);
  running_ = false;
  ue_beam_ = nullptr;
  on_failure_ = nullptr;
  below_since_.reset();
}

void LinkMonitor::check() {
  const sim::Time now = simulator_.now();
  const phy::BeamId tx_beam = environment_.bs(cell_).serving_tx_beam();
  const phy::BeamId rx_beam = ue_beam_();
  const double threshold =
      environment_.link_budget().config().data_threshold_snr_db;

  if (now < hold_until_ && tx_beam == held_tx_beam_ &&
      rx_beam == held_rx_beam_) {
    // Certified healthy: the outcome of an evaluation is known. It can
    // still end an outage seen on another beam pair since the hold began.
    emit_.count(obs::ProtocolCounter::kLinkChecksCertified);
    below_since_.reset();
    ST_INVARIANT(invariants::check_link_certificate(
        environment_.checker_dl_snr_db(cell_, tx_beam, rx_beam, now),
        threshold, now, hold_until_));
    schedule_next();
    return;
  }

  emit_.count(obs::ProtocolCounter::kLinkChecksEvaluated);
  const double snr_db =
      environment_.true_dl_snr_db(cell_, tx_beam, rx_beam, now);
  if (snr_db >= threshold) {
    below_since_.reset();
    hold_until_ = environment_.certified_hold_until(cell_, tx_beam, rx_beam,
                                                    now, snr_db - threshold);
    held_tx_beam_ = tx_beam;
    held_rx_beam_ = rx_beam;
  } else if (!below_since_.has_value()) {
    below_since_ = now;
    if (emit_.tracing()) {
      emit_.emit({.t = now,
                  .type = obs::TraceEventType::kLinkBelowThreshold,
                  .cell = cell_,
                  .value = snr_db});
    }
  } else if (now - *below_since_ >= config_.failure_window) {
    running_ = false;
    if (emit_.tracing()) {
      emit_.emit({.t = now,
                  .type = obs::TraceEventType::kRadioLinkFailure,
                  .cell = cell_,
                  .value = snr_db});
    }
    FailureCallback cb = std::move(on_failure_);
    on_failure_ = nullptr;
    ue_beam_ = nullptr;
    cb();
    return;
  }
  schedule_next();
}

void LinkMonitor::schedule_next() {
  tick_ = simulator_.schedule_after(config_.check_period, [this] { check(); });
}

namespace invariants {

void check_link_certificate(double snr_db, double threshold_db, sim::Time now,
                            sim::Time hold_until) {
  if (snr_db < threshold_db) {
    contracts::violate(
        "LinkMonitor",
        log_message("certified tick at ", now.ms(), " ms (hold until ",
                    hold_until.ms(), " ms) has SNR ", snr_db,
                    " dB below the threshold ", threshold_db, " dB"));
  }
}

}  // namespace invariants

}  // namespace st::net
