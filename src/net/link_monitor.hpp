// Serving-link health / radio link failure (RLF) detection.
//
// A modem experiences link quality as decoded or undecoded transport
// blocks; we model that as periodic checks of the true serving-link SNR
// against the data threshold. The link is declared failed when it has
// been below threshold continuously for `failure_window` — the moment in
// the Silent Tracker state machine when "the mobile can no longer
// communicate with the serving cell" and the protocol switches its
// serving cell to the tracked neighbour.
//
// Out-of-sync/in-sync counting (N310/N311-style) is collapsed to the
// window for clarity; the window length plays the same role as T310.
//
// The check runs every `check_period`, but it evaluates the SNR only when
// it has to. A healthy evaluation at t0 with margin m above the threshold
// yields a certified hold (RadioEnvironment::certified_hold_until): no
// SNR of the same beam pair can fall below the threshold before it ends.
// A later tick inside the hold that sees the same serving TX beam and UE
// RX beam is a healthy check without the evaluation. The beams are
// compared at the tick, so no beam switch needs to wake the monitor, and
// the tick schedule — and with it every outcome — is that of evaluating
// every tick.
#pragma once

#include <functional>
#include <optional>

#include "net/environment.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace st::net {

struct LinkMonitorConfig {
  sim::Duration check_period = sim::Duration::milliseconds(1);
  /// Continuous below-threshold time that declares failure (T310-like;
  /// shorter than NR's 1 s default because the paper's system reacts at
  /// beam-management timescales, but long enough — ten SSB bursts — for
  /// BeamSurfer to dodge a transient fade via a reflector beam first).
  sim::Duration failure_window = sim::Duration::milliseconds(200);
};

class LinkMonitor {
 public:
  using BeamProvider = std::function<phy::BeamId()>;
  using FailureCallback = std::function<void()>;

  LinkMonitor(sim::Simulator& simulator, RadioEnvironment& environment,
              LinkMonitorConfig config);

  /// Start monitoring `cell`, whose serving TX beam is read from the
  /// base station and whose mobile RX beam comes from `ue_beam`.
  /// `on_failure` fires once when RLF is declared; monitoring then stops.
  void start(CellId cell, BeamProvider ue_beam, FailureCallback on_failure);

  void stop();

  [[nodiscard]] bool monitoring() const noexcept { return running_; }

  /// True while the link is currently below the data threshold (an outage
  /// possibly shorter than the failure window).
  [[nodiscard]] bool in_outage() const noexcept {
    return below_since_.has_value();
  }

  /// Recording sinks (not owned; may be null). Link events are
  /// trace-only: outage entry and RLF, never the per-check samples. Every
  /// tick counts as kLinkChecksEvaluated or kLinkChecksCertified.
  void set_sinks(obs::Sinks sinks) { emit_.sinks = sinks; }

 private:
  void check();
  void schedule_next();

  sim::Simulator& simulator_;
  RadioEnvironment& environment_;
  LinkMonitorConfig config_;

  bool running_ = false;
  CellId cell_ = kInvalidCell;
  BeamProvider ue_beam_;
  FailureCallback on_failure_;
  std::optional<sim::Time> below_since_;
  /// Certified hold of the last healthy evaluation and the beam pair it
  /// covers; `hold_until_` at or before now means no certificate.
  sim::Time hold_until_;
  phy::BeamId held_tx_beam_ = phy::kInvalidBeam;
  phy::BeamId held_rx_beam_ = phy::kInvalidBeam;
  sim::EventId tick_ = 0;
  obs::Emitter emit_{obs::Component::kLinkMonitor};
};

namespace invariants {

/// A tick the monitor skipped under a certificate must really be healthy:
/// the SNR evaluated at that tick is at or above the data threshold.
/// Throws contracts::ContractViolation otherwise. Wired in as
/// ST_INVARIANT, so it runs (and costs an evaluation per skipped tick)
/// only in -DST_CHECK_INVARIANTS=ON builds.
void check_link_certificate(double snr_db, double threshold_db, sim::Time now,
                            sim::Time hold_until);

}  // namespace invariants

}  // namespace st::net
