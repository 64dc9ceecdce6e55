// Random access (RACH) to a target cell — the final step of a handover.
//
// NR-style 4-step contention procedure, compressed to what matters for
// the paper's question (does the mobile's tracked beam still work when it
// finally gets to transmit?):
//
//   1. Preamble  (UL): sent at the next RACH occasion associated with the
//      target's best-detected SSB beam; the BS listens with that beam.
//   2. RAR       (DL): the BS answers on the same beam.
//   3. Msg3      (UL): connection/context request.
//   4. Msg4      (DL): contention resolution — handover complete.
//
// Each message is a success draw on the instantaneous link SNR. A failed
// step retries from the preamble at the next occasion with 3 dB power
// ramping, up to `max_attempts`. The mobile's beam is consulted *through a
// callback at every message*, so a tracker that keeps adapting during the
// procedure (Silent Tracker's whole point) keeps improving its odds —
// while a stale beam lets the procedure time out into a hard handover.
#pragma once

#include <functional>

#include "net/environment.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace st::net {

struct RachConfig {
  unsigned max_attempts = 8;
  double power_ramp_db = 3.0;           ///< per retry, on the preamble
  sim::Duration rar_delay = sim::Duration::milliseconds(2);
  sim::Duration msg3_delay = sim::Duration::milliseconds(2);
  sim::Duration msg4_delay = sim::Duration::milliseconds(2);
};

struct RachOutcome {
  bool success = false;
  unsigned attempts = 0;       ///< preambles transmitted
  sim::Duration latency{};     ///< start() to msg4 (or final failure)
};

class RachProcedure {
 public:
  using Callback = std::function<void(const RachOutcome&)>;
  /// Consulted at every transmission/reception for the mobile's current
  /// receive (== transmit, by beam correspondence) beam.
  using BeamProvider = std::function<phy::BeamId()>;

  RachProcedure(sim::Simulator& simulator, RadioEnvironment& environment,
                RachConfig config);

  /// Begin random access to `target` using its SSB beam `target_tx_beam`
  /// (the beam the search/tracker found best). `ue_beam` supplies the
  /// mobile beam at each step; `on_done` fires exactly once.
  void start(CellId target, phy::BeamId target_tx_beam, BeamProvider ue_beam,
             Callback on_done);

  void abort();

  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Recording sinks (not owned; may be null). RACH events are
  /// trace-only: they never appear in the narrative.
  void set_sinks(obs::Sinks sinks) { emit_.sinks = sinks; }

 private:
  void attempt();
  void fail_attempt();
  void conclude(bool success);

  sim::Simulator& simulator_;
  RadioEnvironment& environment_;
  RachConfig config_;

  bool running_ = false;
  CellId target_ = kInvalidCell;
  phy::BeamId target_tx_beam_ = phy::kInvalidBeam;
  BeamProvider ue_beam_;
  Callback on_done_;
  sim::Time started_{};
  unsigned attempts_ = 0;
  sim::EventId pending_ = 0;
  obs::Emitter emit_{obs::Component::kRach};
};

}  // namespace st::net
