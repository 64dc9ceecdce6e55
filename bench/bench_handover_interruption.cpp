// E4 — service interruption: Silent Tracker's soft handover vs the
// reactive (hard) baseline.
//
// Paper context (§1/§2): initial beam search can take up to 1.28 s, which
// is what a reactive mobile pays *after* its serving link has already
// died; Silent Tracker banks the search and tracking ahead of time, so
// the interruption is only the random access on an already-aligned beam.
// The harness reports interruption distributions for both protocols on
// the same seeds/scenarios.
//
//   ./bench_handover_interruption [--preset NAME] [--duration-ms D]
//                                 [--report-out report.json]
//                                 [--trace-out trace.json]
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
      "E4: handover service interruption, Silent Tracker vs reactive",
      "§1/§2 claim — soft handover avoids the up-to-1.28 s search a hard "
      "handover pays");

  const auto run_seeds = st::bench::seeds(25);
  const std::vector<st::bench::LabelledSpec> axis = st::bench::scenario_axis(
      spec_options,
      {core::MobilityScenario::kHumanWalk, core::MobilityScenario::kRotation,
       core::MobilityScenario::kVehicular});

  Table table({"scenario", "protocol", "handovers", "success [CI]",
               "interruption mean ms", "p50 ms", "p95 ms", "max ms"});

  SampleSet soft_all;
  SampleSet hard_all;

  for (const st::bench::LabelledSpec& scenario : axis) {
    for (const auto protocol :
         {core::ProtocolKind::kSilentTracker, core::ProtocolKind::kReactive}) {
      core::ScenarioSpec spec = scenario.spec;
      for (core::UeProfile& ue : spec.ues) {
        ue.protocol = protocol;
      }
      const st::bench::Aggregate agg = st::bench::run_batch(spec, run_seeds);

      table.row()
          .cell(scenario.label)
          .cell(std::string(core::to_string(protocol)))
          .cell(agg.handover_success.trials())
          .cell(st::bench::rate_with_ci(agg.handover_success));
      if (agg.interruption_ms.empty()) {
        table.cell("-").cell("-").cell("-").cell("-");
      } else {
        table.cell(agg.interruption_ms.mean(), 1)
            .cell(agg.interruption_ms.median(), 1)
            .cell(agg.interruption_ms.percentile(95.0), 1)
            .cell(agg.interruption_ms.max(), 1);
        auto& sink = protocol == core::ProtocolKind::kSilentTracker
                         ? soft_all
                         : hard_all;
        for (const double v : agg.interruption_ms.samples()) {
          sink.add(v);
        }
      }
    }
  }
  table.print(std::cout);

  if (!soft_all.empty() && !hard_all.empty()) {
    std::cout << "\nOverall mean interruption: silent_tracker = "
              << format_double(soft_all.mean(), 1)
              << " ms, reactive = " << format_double(hard_all.mean(), 1)
              << " ms  (ratio "
              << format_double(hard_all.mean() / soft_all.mean(), 1)
              << "x)\nMedian interruption:       silent_tracker = "
              << format_double(soft_all.median(), 1)
              << " ms, reactive = " << format_double(hard_all.median(), 1)
              << " ms  (ratio "
              << format_double(hard_all.median() / soft_all.median(), 1)
              << "x)\n";
    // Translate to user impact: a 1 Gb/s mm-wave stream loses this much
    // data per handover gap.
    constexpr double kGbps = 1.0;
    std::cout << "At " << kGbps << " Gb/s, a median gap costs "
              << format_double(soft_all.median() * kGbps / 8.0, 1)
              << " MB (silent_tracker) vs "
              << format_double(hard_all.median() * kGbps / 8.0, 1)
              << " MB (reactive) of lost data.\n";
  }
  std::cout << "Shape check: reactive interruption is dominated by the "
               "directional search (hundreds of ms to seconds); Silent "
               "Tracker pays only RACH on an aligned beam.\n";
  // The instrumented re-run covers the first swept scenario under the
  // paper's protocol.
  return st::bench::write_observability(obs, axis.front().spec) ? 0 : 1;
}
