// ProtocolConfig — the one parameter set of both handover protocols.
//
// Silent Tracker and the reactive baseline run the same serving link
// (BeamSurfer with its link monitor), the same cell search and the same
// random access, so the E4 comparison between them is fair by
// construction: both read these fields, and the reactive baseline simply
// ignores the neighbour-tracking ones.
#pragma once

#include "core/beamsurfer.hpp"
#include "core/rss_tracker.hpp"
#include "net/cell_search.hpp"
#include "net/rach.hpp"
#include "sim/time.hpp"

namespace st::core {

struct ProtocolConfig {
  /// The 3 dB rule's filter, on both links: BeamSurfer's serving beam and
  /// the tracked neighbour beam.
  RssTrackerConfig rss_rule{};
  /// The serving link: BeamSurfer's rule (ii) and its link monitor.
  BeamSurferConfig beamsurfer{};
  net::CellSearchConfig search{};
  net::RachConfig rach{};
  /// Search+access rounds on the hard-handover path before giving up.
  /// Generous, because a real mobile keeps searching; a definitive
  /// failure only happens when coverage is truly gone.
  unsigned max_rounds = 10;

  // Neighbour tracking (Silent Tracker only).
  /// An adjacent neighbour TX beam must beat the tracked one by this
  /// margin (twice in a row) before the tracker retargets.
  double tx_retarget_margin_db = 1.0;
  /// Tracking a neighbour whose SSBs have been at the correlator floor
  /// for this long (despite recovery sweeps) abandons it and re-enters
  /// InitialSearch — a beam that cannot be heard any more is, per
  /// Fig. 2b's own logic, no discovered beam at all. Keeps the tracker
  /// from riding a receding cell while a better neighbour appears (the
  /// vehicular drive past several cells).
  sim::Duration neighbour_abandon_after = sim::Duration::milliseconds(2000);
};

}  // namespace st::core
