// E8 — ablation of the SSB burst periodicity (extension).
//
// Every in-band decision in the system rides on the synchronisation
// signal cadence: one measurement opportunity per beam per period. The
// paper inherits NR's 20 ms default (which also sets the 1.28 s worst
// case search the introduction cites: 64 beam dwells x 20 ms). This
// sweep varies the period (NR allows 5–160 ms) and reports what it buys
// and costs:
//   * shorter periods -> faster drop detection and probing -> better
//     tracking alignment, shorter search;
//   * longer periods -> less overhead in a real system (not modelled),
//     but stale beams and slow discovery.
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
      "E8: SSB periodicity ablation (measurement cadence)",
      "extension — the paper's latencies all scale with the 20 ms SSB "
      "period (64 dwells x 20 ms = the 1.28 s search bound of its intro)");

  const auto run_seeds = st::bench::seeds(12);
  const std::vector<st::bench::LabelledSpec> axis = st::bench::scenario_axis(
      spec_options,
      {core::MobilityScenario::kHumanWalk, core::MobilityScenario::kRotation},
      20'000);

  Table table({"scenario", "SSB period ms", "time aligned %",
               "handover success [CI]", "soft [CI]", "interruption p50 ms"});

  for (const st::bench::LabelledSpec& scenario : axis) {
    for (const std::int64_t period_ms : {5LL, 10LL, 20LL, 40LL, 80LL}) {
      core::ScenarioSpec spec = scenario.spec;
      spec.deployment.frame.ssb_period =
          sim::Duration::milliseconds(period_ms);
      // Keep the search budget at 64 dwells, as in NR initial access.
      for (core::UeProfile& ue : spec.ues) {
        ue.protocol_config.search.dwell =
            sim::Duration::milliseconds(period_ms);
        ue.protocol_config.search.budget =
            sim::Duration::milliseconds(64 * period_ms);
      }

      const st::bench::Aggregate agg = st::bench::run_batch(spec, run_seeds);
      table.row()
          .cell(scenario.label)
          .cell(static_cast<int>(period_ms))
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

  std::cout << "\nShape check: alignment under rotation improves steeply as "
               "the period shrinks (tracking is measurement-cadence "
               "limited); the slow walk barely cares.\n";
  return st::bench::write_observability(obs, axis.front().spec) ? 0 : 1;
}
