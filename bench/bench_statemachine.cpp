// E2 — Fig. 2b: the Silent Tracker state machine, measured.
//
// The state machine itself is validated by the test suite; this bench
// reports how long the protocol spends in each state on the paper's
// cell-edge walk, and the per-transition latencies that the state machine
// design implies: time-to-discovery (InitialSearch), silent tracking
// horizon (Tracking, i.e. how much head start the protocol banks before
// the serving cell dies), and access time (Accessing).
#include <iostream>
#include <optional>

#include "bench_util.hpp"

namespace {

using namespace st;
using namespace st::sim::literals;

/// Time of the first SilentTracker trace event satisfying `match`.
template <typename Match>
std::optional<sim::Time> first_tracker_event(const core::ScenarioResult& r,
                                             Match match) {
  for (const obs::TraceEvent& e :
       r.trace->buffer(obs::Component::kSilentTracker).snapshot()) {
    if (match(e)) {
      return e.t;
    }
  }
  return std::nullopt;
}

struct Dwells {
  SampleSet search_ms;    ///< start -> FOUND
  SampleSet tracking_ms;  ///< FOUND -> SERVING_LOST (the banked head start)
  SampleSet access_ms;    ///< Accessing -> HO_COMPLETE
};

}  // namespace

int main() {
  st::bench::print_header(
      "E2: state machine dwell/transition times (human walk)",
      "Fig. 2b — the protocol states and what they cost");

  Dwells dwells;
  SuccessRate discovery_before_loss;

  core::ScenarioSpec spec = core::preset::paper_walk();
  spec.ues.front().chain_handovers = false;  // isolate one full traversal
  spec.collect_trace = true;                 // the dwells are read off it
  for (const std::uint64_t seed : st::bench::seeds(30)) {
    spec.seed = seed;
    const core::ScenarioResult result = core::run_scenario(spec);

    using Type = obs::TraceEventType;
    const auto found = first_tracker_event(result, [](const auto& e) {
      return e.type == Type::kCellFound;
    });
    const auto lost = first_tracker_event(result, [](const auto& e) {
      return e.type == Type::kServingLost;
    });
    const auto access = first_tracker_event(result, [](const auto& e) {
      return e.type == Type::kStateTransition && e.label == "Accessing";
    });
    const auto complete = first_tracker_event(result, [](const auto& e) {
      return e.type == Type::kHandoverComplete && e.flag;
    });

    if (found) {
      dwells.search_ms.add(found->ms());
    }
    if (found && lost && *found < *lost) {
      dwells.tracking_ms.add((*lost - *found).ms());
    }
    if (lost) {
      discovery_before_loss.record(found && *found < *lost);
    }
    if (access && complete) {
      dwells.access_ms.add((*complete - *access).ms());
    }
  }

  Table table({"state / transition", "samples", "mean ms", "p50 ms", "p95 ms"});
  const auto add_row = [&table](const char* name, const SampleSet& s) {
    table.row().cell(name).cell(s.count());
    if (s.empty()) {
      table.cell("-").cell("-").cell("-");
    } else {
      table.cell(s.mean(), 1).cell(s.median(), 1).cell(s.percentile(95.0), 1);
    }
  };
  add_row("InitialSearch (start -> neighbour found)", dwells.search_ms);
  add_row("Tracking (found -> serving lost: banked head start)",
          dwells.tracking_ms);
  add_row("Accessing (serving lost -> Msg4)", dwells.access_ms);
  table.print(std::cout);

  std::cout << "\nNeighbour discovered before the serving link died: "
            << st::bench::rate_with_ci(discovery_before_loss) << "\n"
            << "Shape check: the tracking head start is *seconds* while "
               "access is tens of ms — the whole point of tracking "
               "silently ahead of time.\n";
  return 0;
}
