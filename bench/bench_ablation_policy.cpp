// E6 — ablation of the probe policy: adjacent beams vs full re-sweep.
//
// When the 3 dB drop fires, the paper's protocol probes only the two
// directionally adjacent receive beams (one SSB burst each). The ablation
// baseline re-measures the whole codebook instead — per decision it finds
// the global best beam, but a full 20° codebook sweep costs 17 bursts
// (~340 ms) during which the link keeps moving. We also compare the omni
// "codebook" (no beams to manage at all, and no beamforming gain).
//
// Expected shape: adjacent probing wins under continuous mobility (it is
// the locality assumption that physical motion moves the best beam to a
// neighbour first); the full sweep loses tracking time; omni has nothing
// to track but cannot reach cell-edge SNR.
#include <iostream>

#include "bench_util.hpp"

namespace {

using namespace st;
using namespace st::sim::literals;

}  // namespace

int main(int argc, char** argv) {
  const st::bench::ObsOptions obs = st::bench::consume_obs_options(argc, argv);
  const st::bench::SpecOptions spec_options =
      st::bench::consume_spec_options(argc, argv);
  st::bench::reject_unknown_options(argc, argv);

  st::bench::print_header(
      "E6: probe-policy ablation (adjacent vs full re-sweep vs omni)",
      "§3 design choice — 'switch to one of the directionally adjacent "
      "receive beams'");

  const auto run_seeds = st::bench::seeds(12);
  const std::vector<st::bench::LabelledSpec> axis = st::bench::scenario_axis(
      spec_options,
      {core::MobilityScenario::kHumanWalk, core::MobilityScenario::kRotation},
      20'000);

  struct Variant {
    const char* name;
    double beamwidth_deg;
    core::BeamPolicyKind policy;
  };
  const Variant variants[] = {
      {"adjacent (paper)", 20.0, core::BeamPolicyKind::kSilentTracker},
      {"full re-sweep", 20.0, core::BeamPolicyKind::kFullSweep},
      {"omni", 0.0, core::BeamPolicyKind::kSilentTracker},
  };

  Table table({"scenario", "policy", "time aligned %", "handover success [CI]",
               "soft [CI]", "interruption p50 ms"});

  for (const st::bench::LabelledSpec& scenario : axis) {
    for (const Variant& variant : variants) {
      core::ScenarioSpec spec = scenario.spec;
      for (core::UeProfile& ue : spec.ues) {
        ue.ue_beamwidth_deg = variant.beamwidth_deg;
        ue.beam_policy.kind = variant.policy;
      }

      const st::bench::Aggregate agg = st::bench::run_batch(spec, run_seeds);

      table.row()
          .cell(scenario.label)
          .cell(variant.name)
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

  std::cout << "\nNote: omni's 'time aligned' is trivially 100% — a single "
               "0 dBi beam is always its own best beam; its handover success "
               "column is what shows it cannot reach cell-edge SNR.\n"
               "Shape check: adjacent probing tracks at least as well as "
               "the full re-sweep under slow motion and far better under "
               "rotation, at a fraction of the measurement budget; omni "
               "cannot hold cell-edge links.\n";
  return st::bench::write_observability(obs, axis.front().spec) ? 0 : 1;
}
