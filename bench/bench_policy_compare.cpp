// E15 — head-to-head beam-management policies over the rate layer
// (extension).
//
// The tracker's probe/refine decision surface is a Strategy
// (core::BeamPolicy): the paper's adjacent-beam Silent Tracker rule, a
// hierarchical coarse-to-fine sweep (coarse stride then a refine round
// around the coarse winner, after Palacios et al.), and a blind
// switch-without-confirming baseline (after Gao et al.). This bench runs
// the three policies head to head across the paper scenarios plus the
// multi-cell grid, with the rate layer scoring every run: mean
// throughput from per-slot SINR -> CQI -> bits per RB, outage duration
// (SINR below threshold for at least the configured window), handover
// interruption, and tracking alignment.
//
//   ./bench_policy_compare [--preset NAME] [--duration-ms D] [--runs N]
//                          [--report-out report.json] [--trace-out t.json]
//
// --preset collapses the scenario axis to one named spec preset
// (paper_walk, grid_walk, ...); --duration-ms and --runs shrink the batch
// for CI smoke runs. Writes BENCH_policy.json (same "benchmarks" schema
// as BENCH_micro.json plus a per-combination "matrix" block); --report-out
// additionally writes the RunReport of one instrumented run of the first
// scenario under the default policy.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/beam_policy.hpp"
#include "rate/rate_model.hpp"

namespace {

using namespace st;
using namespace st::sim::literals;

/// Everything one (scenario, policy) combination produces: the protocol
/// aggregate, the merged rate-layer totals, and the batch wall time.
struct Outcome {
  st::bench::Aggregate agg;
  rate::RateStats rate;
  double wall_seconds = 0.0;
};

Outcome run_combination(const core::ScenarioSpec& spec,
                        const std::vector<std::uint64_t>& run_seeds) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<core::ScenarioResult> results = fleet::parallel_map(
      run_seeds.size(), /*n_threads=*/0, [&](std::size_t i) {
        core::ScenarioSpec run_spec = spec;
        run_spec.seed = run_seeds[i];
        return core::run_scenario(run_spec);
      });
  Outcome outcome;
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (const core::ScenarioResult& result : results) {
    outcome.agg.absorb(result);
    outcome.rate.merge(result.rate);
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const st::bench::ObsOptions obs = st::bench::consume_obs_options(argc, argv);
  const st::bench::SpecOptions spec_options =
      st::bench::consume_spec_options(argc, argv);
  std::size_t n_runs = 12;
  st::bench::parse_options(argc, argv, {{"--runs", st::bench::store(n_runs)}});
  if (n_runs == 0) {
    std::cerr << "bench_policy_compare: --runs must be positive\n";
    return 2;
  }

  st::bench::print_header(
      "E15: beam-management policy comparison over the rate layer",
      "extension — Silent Tracker's adjacent rule vs hierarchical "
      "coarse-to-fine vs blind switching, scored by throughput and outage");

  const auto run_seeds = st::bench::seeds(n_runs);

  std::vector<std::string> scenario_names = {"paper_walk", "paper_rotation",
                                             "paper_vehicular", "grid_walk"};
  if (!spec_options.preset.empty()) {
    scenario_names = {spec_options.preset};
  }

  const core::BeamPolicyKind policies[] = {
      core::BeamPolicyKind::kSilentTracker,
      core::BeamPolicyKind::kHierarchical,
      core::BeamPolicyKind::kBlind,
  };

  Table table({"scenario", "policy", "tput Mb/s", "SINR dB", "outage ms/run",
               "events/run", "success [CI]", "interruption p50 ms",
               "aligned %"});

  struct Entry {
    std::string scenario;
    std::string policy;
    Outcome outcome;
  };
  std::vector<Entry> entries;

  for (const std::string& name : scenario_names) {
    core::ScenarioSpec base = core::preset_by_name(name);
    if (spec_options.duration_ms > 0) {
      base.duration = sim::Duration::milliseconds(spec_options.duration_ms);
    }
    base.rate.enabled = true;
    for (const core::BeamPolicyKind kind : policies) {
      core::ScenarioSpec spec = base;
      for (core::UeProfile& ue : spec.ues) {
        ue.beam_policy.kind = kind;
      }
      const Outcome outcome =
          run_combination(core::SpecBuilder(std::move(spec)).build(),
                          run_seeds);
      const double runs = static_cast<double>(run_seeds.size());
      table.row()
          .cell(name)
          .cell(std::string(core::to_string(kind)))
          .cell(outcome.rate.mean_throughput_mbps(), 1)
          .cell(outcome.rate.mean_sinr_db(), 1)
          .cell(outcome.rate.outage_ms / runs, 1)
          .cell(static_cast<double>(outcome.rate.outage_events) / runs, 2)
          .cell(st::bench::rate_with_ci(outcome.agg.handover_success))
          .cell(outcome.agg.interruption_ms.empty()
                    ? std::string("-")
                    : format_double(outcome.agg.interruption_ms.median(), 1))
          .cell(outcome.agg.alignment_fraction.empty()
                    ? std::string("-")
                    : format_double(
                          100.0 * outcome.agg.alignment_fraction.mean(), 1));
      entries.push_back({name, std::string(core::to_string(kind)), outcome});
    }
  }
  table.print(std::cout);

  // BENCH_micro.json schema: a "benchmarks" array of {name, ns_per_op,
  // items_per_second}, plus a named per-combination matrix.
  const double runs = static_cast<double>(run_seeds.size());
  json::Value benchmarks = json::Value::array();
  json::Value matrix = json::Value::object();
  for (const Entry& e : entries) {
    const std::string name = e.scenario + "/" + e.policy;
    benchmarks.push_back(st::bench::benchmark_json(
        "policy/" + name, e.outcome.wall_seconds * 1e9 / runs,
        e.outcome.wall_seconds > 0.0 ? runs / e.outcome.wall_seconds : 0.0));
    const st::bench::Aggregate& agg = e.outcome.agg;
    const rate::RateStats& rate = e.outcome.rate;
    json::Value row = json::Value::object();
    row.set("throughput_mbps", rate.mean_throughput_mbps());
    row.set("mean_sinr_db", rate.mean_sinr_db());
    row.set("mean_cqi", rate.mean_cqi());
    row.set("outage_ms_per_run", rate.outage_ms / runs);
    row.set("outage_events_per_run",
            static_cast<double>(rate.outage_events) / runs);
    row.set("outage_fraction", rate.outage_fraction());
    row.set("handover_success", agg.handover_success.rate());
    row.set("handovers", agg.handover_success.trials());
    row.set("interruption_p50_ms", agg.interruption_ms.empty()
                                       ? 0.0
                                       : agg.interruption_ms.median());
    row.set("alignment_fraction", agg.alignment_fraction.empty()
                                      ? 0.0
                                      : agg.alignment_fraction.mean());
    matrix.set(name, std::move(row));
  }
  json::Value doc = json::Value::object();
  doc.set("benchmarks", std::move(benchmarks));
  doc.set("matrix", std::move(matrix));
  doc.set("runs_per_combination", run_seeds.size());
  std::ofstream("BENCH_policy.json") << doc.dump() << "\n";
  std::cout << "\nwrote BENCH_policy.json\n"
            << "Shape check: silent_tracker holds alignment with two probes "
               "per drop; hierarchical pays a coarse sweep plus a refine "
               "round per drop but recovers losses; blind switches without "
               "confirming and bleeds alignment under rotation.\n";

  // The instrumented re-run covers the first scenario under the paper's
  // default policy.
  if (obs.enabled()) {
    core::ScenarioSpec spec = core::preset_by_name(scenario_names.front());
    if (spec_options.duration_ms > 0) {
      spec.duration = sim::Duration::milliseconds(spec_options.duration_ms);
    }
    if (!st::bench::write_observability(
            obs, core::SpecBuilder(std::move(spec)).build())) {
      return 1;
    }
  }
  return 0;
}
