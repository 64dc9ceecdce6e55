// E3 — Fig. 2c: Silent Tracker evaluation across the three mobility
// scenarios: human walk (1.4 m/s), device rotation (120 °/s), vehicular
// motion (20 mph).
//
// Paper claim to reproduce: "Silent Tracker maintains the mobile's
// receive beam aligned to the potential target base station's transmit
// beam till the successful conclusion of handover in three mobility
// scenarios." The harness reports, per scenario: the fraction of tracked
// time within 3 dB of the ground-truth best receive beam, the handover
// success rate, the fraction of soft handovers, alignment at handover
// completion, and the service interruption. It also prints a downsampled
// tracked-vs-best RSS series of one run per scenario — the raw material
// of the paper's Fig. 2c time plots.
#include <iostream>

#include "bench_util.hpp"

namespace {

using namespace st;
using namespace st::sim::literals;

void print_series(const core::ScenarioResult& result) {
  const auto tracked = result.neighbour_tracked_rss_dbm.points();
  const auto best = result.neighbour_best_rss_dbm.points();
  std::cout << "  t_ms    tracked_dBm  best_dBm  gap_dB\n";
  const std::size_t step = std::max<std::size_t>(1, tracked.size() / 14);
  for (std::size_t i = 0; i < tracked.size(); i += step) {
    std::printf("  %-7.0f %-12.2f %-9.2f %-6.2f\n", tracked[i].t.ms(),
                tracked[i].value, best[i].value,
                best[i].value - tracked[i].value);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const st::bench::ObsOptions obs_options =
      st::bench::consume_obs_options(argc, argv);
  st::bench::print_header(
      "E3: Silent Tracker tracking evaluation",
      "Fig. 2c — beam kept aligned until handover completion, three "
      "mobility scenarios");

  const auto run_seeds = st::bench::seeds(25);

  Table table({"scenario", "runs", "handover success [CI]", "soft [CI]",
               "aligned@completion [CI]", "time aligned %",
               "interruption p50 ms", "p95 ms"});

  for (const auto mobility :
       {core::MobilityScenario::kHumanWalk, core::MobilityScenario::kRotation,
        core::MobilityScenario::kVehicular}) {
    const st::bench::Aggregate agg =
        st::bench::run_batch(core::preset::paper(mobility), run_seeds);

    table.row()
        .cell(std::string(core::to_string(mobility)))
        .cell(run_seeds.size())
        .cell(st::bench::rate_with_ci(agg.handover_success))
        .cell(st::bench::rate_with_ci(agg.soft_fraction))
        .cell(st::bench::rate_with_ci(agg.aligned_at_completion))
        .cell(100.0 * agg.alignment_fraction.mean(), 1);
    if (agg.interruption_ms.empty()) {
      table.cell("-").cell("-");
    } else {
      table.cell(agg.interruption_ms.median(), 1)
          .cell(agg.interruption_ms.percentile(95.0), 1);
    }
  }
  table.print(std::cout);

  std::cout << "\n--- tracked vs best neighbour RSS, one run per scenario "
               "(Fig. 2c raw series) ---\n";
  for (const auto mobility :
       {core::MobilityScenario::kHumanWalk, core::MobilityScenario::kRotation,
        core::MobilityScenario::kVehicular}) {
    const core::ScenarioSpec spec =
        core::SpecBuilder(core::preset::paper(mobility)).seed(1000).build();
    std::cout << "\n[" << core::to_string(mobility) << "]\n";
    print_series(core::run_scenario(spec));
  }

  std::cout << "\nShape check (paper): alignment maintained to handover "
               "completion in all three scenarios; handovers predominantly "
               "soft.\n";

  // Optional observability outputs: one instrumented human-walk run.
  const core::ScenarioSpec traced =
      core::SpecBuilder(core::preset::paper_walk()).seed(1000).build();
  return st::bench::write_observability(obs_options, traced) ? 0 : 1;
}
