// E11 — beam pattern realism ablation (extension).
//
// The analytic Gaussian pattern (clean main lobe over a flat -20 dB
// floor) is the standard modelling abstraction; a physical
// half-wavelength ULA has a sinc-like main lobe with genuine sidelobes
// (first sidelobe only ~13 dB down). Sidelobes matter to this system in
// two ways: during search they admit detections of a cell through the
// wrong receive beam (a "ghost" alignment the tracker must then fix), and
// during tracking they raise the floor the 3 dB rule sits on. This bench
// runs the paper's scenarios with both families at the same nominal
// beamwidth.
#include <iostream>

#include "bench_util.hpp"

namespace {

using namespace st;
using namespace st::sim::literals;

}  // namespace

int main() {
  st::bench::print_header(
      "E11: beam pattern family — analytic Gaussian vs physical ULA",
      "extension — does the modelling abstraction change the paper's "
      "conclusions?");

  std::cout << "codebooks at nominal 20 deg: Gaussian = "
            << core::make_ue_codebook(20.0, false).description()
            << ", ULA = " << core::make_ue_codebook(20.0, true).description()
            << " (peak gains "
            << format_double(core::make_ue_codebook(20.0, false)
                                 .beam(0)
                                 .pattern()
                                 .peak_gain_dbi(),
                             1)
            << " / "
            << format_double(core::make_ue_codebook(20.0, true)
                                 .beam(0)
                                 .pattern()
                                 .peak_gain_dbi(),
                             1)
            << " dBi)\n\n";

  const auto run_seeds = st::bench::seeds(12);

  Table table({"scenario", "pattern", "time aligned %",
               "handover success [CI]", "soft [CI]", "interruption p50 ms"});

  for (const auto mobility : {core::MobilityScenario::kHumanWalk,
                              core::MobilityScenario::kRotation}) {
    for (const bool ula : {false, true}) {
      core::ScenarioSpec spec = core::SpecBuilder(core::preset::paper(mobility))
                                    .duration(20'000_ms)
                                    .build();
      spec.ues.front().ue_ula_codebook = ula;

      const st::bench::Aggregate agg = st::bench::run_batch(spec, run_seeds);
      table.row()
          .cell(std::string(core::to_string(mobility)))
          .cell(ula ? "ULA (real sidelobes)" : "Gaussian (analytic)")
          .cell(agg.alignment_fraction.empty()
                    ? std::string("-")
                    : format_double(100.0 * agg.alignment_fraction.mean(), 1))
          .cell(st::bench::rate_with_ci(agg.handover_success))
          .cell(st::bench::rate_with_ci(agg.soft_fraction))
          .cell(agg.interruption_ms.empty()
                    ? std::string("-")
                    : format_double(agg.interruption_ms.median(), 1));
    }
  }
  table.print(std::cout);

  std::cout << "\nShape check: the paper's conclusions (soft handovers, "
               "aligned tracking) must hold for both families — the "
               "protocol rides the main lobe, and sidelobes cost a little "
               "alignment, not the mechanism.\n";
  return 0;
}
