// Directional cell search.
//
// The mobile dwells on one receive beam for a full SSB period (long enough
// to see every transmit beam of every candidate cell once, whatever their
// unknown timing offsets), collects detections, and moves to the next
// receive beam if nothing was found. This is the "initial search" box of
// the Silent Tracker state machine (Fig. 2b) and the procedure measured in
// Fig. 2a: per-dwell cost is one SSB period, so an omni mobile pays one
// period per attempt while a 20° codebook pays up to 18 — but with ~12 dB
// more beamforming gain per dwell, which is what makes directional search
// *succeed* at cell edge where omni does not.
//
// The search only consumes in-band information: the simulator knows when
// candidate cells transmit SSBs (it must, to generate the observations),
// but the outcome delivered to the protocol contains only what a real
// mobile would have learned — detections with their RSS and beam indices.
//
// A `busy` predicate models the mobile's radio being pre-empted (serving
// cell SSB slots and data slots while connected): observations falling in
// busy instants are lost, which is exactly the measurement-resource
// contention described in the paper's Challenges section.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "net/environment.hpp"
#include "net/ids.hpp"
#include "net/observation.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace st::net {

struct CellSearchConfig {
  /// Paper §1: initial beam search can take up to 1.28 s. Searches that
  /// have not found a cell when the budget expires report failure.
  sim::Duration budget = sim::Duration::milliseconds(1280);
  /// Dwell per receive beam; one SSB period guarantees a full sweep of
  /// every candidate's burst regardless of timing offset.
  sim::Duration dwell = sim::Duration::milliseconds(20);
  /// First receive beam to try (protocols may seed this with a guess).
  phy::BeamId start_rx_beam = 0;
};

struct SearchOutcome {
  bool found = false;
  CellId cell = kInvalidCell;
  phy::BeamId tx_beam = phy::kInvalidBeam;  ///< best detected BS beam
  phy::BeamId rx_beam = phy::kInvalidBeam;  ///< beam that found it
  double rss_dbm = 0.0;
  sim::Duration latency{};   ///< search start to decision
  unsigned dwells_used = 0;  ///< receive beams tried
  unsigned detections = 0;   ///< SSBs detected in the winning dwell
  /// Every detection of the winning dwell (detections == all.size()):
  /// the raw material for neighbour-ranking decisions, which may prefer
  /// a cell other than the strongest (net/handover_policy.hpp). The
  /// cell/tx_beam/rx_beam/rss_dbm fields above remain the strongest
  /// detection, so legacy callers are unaffected.
  std::vector<SsbObservation> all;
};

class CellSearch {
 public:
  using Callback = std::function<void(const SearchOutcome&)>;
  using BusyPredicate = std::function<bool(sim::Time)>;

  /// `candidate_cells`: cells to search for (e.g. every cell except the
  /// serving one). `busy`: optional radio pre-emption predicate.
  CellSearch(sim::Simulator& simulator, RadioEnvironment& environment,
             std::vector<CellId> candidate_cells, CellSearchConfig config,
             BusyPredicate busy = {});

  /// Begin searching now; `on_done` fires exactly once, with the outcome.
  /// A search object runs at most one search at a time.
  void start(Callback on_done);

  /// Abandon a running search (no callback fires).
  void abort();

  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Recording sinks (not owned; may be null). Search events are
  /// trace-only: they never appear in the narrative.
  void set_sinks(obs::Sinks sinks) { emit_.sinks = sinks; }

 private:
  void begin_dwell();
  void schedule_observations();
  void finish_dwell();
  void conclude(const SearchOutcome& outcome);

  sim::Simulator& simulator_;
  RadioEnvironment& environment_;
  std::vector<CellId> candidates_;
  CellSearchConfig config_;
  BusyPredicate busy_;

  bool running_ = false;
  Callback on_done_;
  sim::Time started_{};
  sim::Time dwell_end_{};
  phy::BeamId current_rx_beam_ = 0;
  unsigned dwells_used_ = 0;
  std::vector<SsbObservation> dwell_detections_;
  std::vector<sim::EventId> pending_events_;
  obs::Emitter emit_{obs::Component::kCellSearch};
};

}  // namespace st::net
