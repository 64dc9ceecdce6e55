// One run fingerprint for the determinism pins (seed replay, serial ==
// parallel, fleet == standalone, preset == explicit spec): the rendered
// narrative, the protocol counter array, the handover outcomes and the
// ground-truth series of a finished run, as one comparable string.
//
// The narrative is rendered from the typed trace, so runs compared
// through this helper should set collect_trace; a run without a trace
// contributes a fixed marker in its place and is still pinned by the
// remaining fields.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "core/scenario.hpp"
#include "obs/trace.hpp"

namespace st::test {

[[nodiscard]] inline std::string fingerprint(const core::ScenarioResult& r) {
  std::ostringstream oss;
  if (r.trace != nullptr) {
    const obs::Narrative narrative = obs::render_narrative(*r.trace);
    oss << "dropped=" << narrative.dropped << '\n';
    for (const obs::NarrativeLine& line : narrative.lines) {
      oss << line.t.ns() << '|' << obs::to_string(line.component) << '|'
          << line.message << '\n';
    }
  } else {
    oss << "no trace\n";
  }
  for (const std::uint64_t value : r.counters.values) {
    oss << value << ',';
  }
  oss << '\n';
  for (const auto& h : r.handovers) {
    oss << h.from << "->" << h.to << '@' << h.completed.ns() << ' '
        << h.success << h.rach_attempts << '\n';
  }
  oss << r.alignment_gap_db.csv();
  oss << r.serving_snr_db.csv();
  return oss.str();
}

}  // namespace st::test
