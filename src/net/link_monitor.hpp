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

  /// Most recent SNR check result [dB] (for diagnostics/examples).
  [[nodiscard]] double last_snr_db() const noexcept { return last_snr_db_; }

  /// True while the link is currently below the data threshold (an outage
  /// possibly shorter than the failure window).
  [[nodiscard]] bool in_outage() const noexcept {
    return below_since_.has_value();
  }

  /// Recording sinks (not owned; may be null). Link events are
  /// trace-only: outage entry and RLF, never the per-check samples.
  void set_sinks(obs::Sinks sinks) { emit_.sinks = sinks; }

 private:
  void check();

  sim::Simulator& simulator_;
  RadioEnvironment& environment_;
  LinkMonitorConfig config_;

  bool running_ = false;
  CellId cell_ = kInvalidCell;
  BeamProvider ue_beam_;
  FailureCallback on_failure_;
  std::optional<sim::Time> below_since_;
  double last_snr_db_ = 0.0;
  sim::EventId tick_ = 0;
  obs::Emitter emit_{obs::Component::kLinkMonitor};
};

}  // namespace st::net
