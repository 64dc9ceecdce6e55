// General scenario runner: every knob of the experiment harness on the
// command line, with CSV output options for plotting. This is the tool a
// downstream user points at their own parameter questions ("what if the
// SSB period were 10 ms?", "does 60-degree tracking survive 200 deg/s?").
//
// Usage:
//   scenario_cli [options]
//     --scenario walk|rotation|vehicular   (default walk)
//     --protocol tracker|reactive          (default tracker)
//     --beamwidth <deg>                    (default 20; 0 = omni)
//     --threshold <dB>                     (default 3)
//     --cells <n>                          (default 2; vehicular wants 3)
//     --duration <s>                       (default 20)
//     --speed <m/s>                        (walk speed, default 1.4)
//     --rotation-rate <deg/s>              (default 120)
//     --vehicle-mph <mph>                  (default 20)
//     --ssb-period <ms>                    (default 20)
//     --seed <n>                           (default 1)
//     --csv rss|gap|snr                    (print a series as CSV and exit)
//     --quiet                              (summary only, no event log)
//   Every option that takes a value also accepts the --flag=value spelling.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/bench_util.hpp"
#include "common/table.hpp"
#include "core/scenario.hpp"
#include "obs/export.hpp"

namespace {

using namespace st;
using namespace st::sim::literals;

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "scenario_cli: " << message
            << " (run with --help for options)\n";
  std::exit(2);
}

[[noreturn]] void print_help_and_exit() {
  std::cout <<
      R"(scenario_cli — run one Silent Tracker experiment with custom knobs.

  --scenario walk|rotation|vehicular   mobility scenario        [walk]
  --protocol tracker|reactive          protocol under test      [tracker]
  --beamwidth <deg>                    mobile codebook; 0=omni  [20]
  --ula                                physical ULA patterns (sidelobes)
  --threshold <dB>                     beam-switch drop rule    [3]
  --cells <n>                          base stations in a row   [2]
  --duration <s>                       simulated time           [20]
  --speed <m/s>                        walk speed               [1.4]
  --rotation-rate <deg/s>              rotation rate            [120]
  --vehicle-mph <mph>                  vehicle speed            [20]
  --ssb-period <ms>                    SSB burst periodicity    [20]
  --seed <n>                           RNG root seed            [1]
  --csv rss|gap|snr                    dump a series as CSV
  --quiet                              summary only
  --trace-out <path>                   write Chrome/Perfetto trace.json
  --report-out <path>                  write machine-readable RunReport JSON
)";
  std::exit(0);
}

}  // namespace

int main(int argc, char** argv) {
  core::ScenarioSpec spec;
  spec.duration = 20'000_ms;
  core::UeProfile& ue = spec.ues.front();
  std::string csv;
  std::string trace_out;
  std::string report_out;
  bool quiet = false;

  bench::parse_options(
      argc, argv,
      {{"--help", [](const std::string&) { print_help_and_exit(); }, false},
       {"-h", [](const std::string&) { print_help_and_exit(); }, false},
       {"--scenario",
        [&](const std::string& v) {
          if (v == "walk") {
            ue.mobility = core::MobilityScenario::kHumanWalk;
          } else if (v == "rotation") {
            ue.mobility = core::MobilityScenario::kRotation;
            // The paper's rotation runs sit at a tighter 40 m cell edge
            // (see preset::paper_rotation()).
            spec.deployment.inter_site_m =
                std::min(spec.deployment.inter_site_m, 40.0);
          } else if (v == "vehicular") {
            ue.mobility = core::MobilityScenario::kVehicular;
            spec.n_cells = 3;
          } else {
            usage_error("unknown scenario '" + v + "'");
          }
        }},
       {"--protocol",
        [&](const std::string& v) {
          if (v == "tracker") {
            ue.protocol = core::ProtocolKind::kSilentTracker;
          } else if (v == "reactive") {
            ue.protocol = core::ProtocolKind::kReactive;
          } else {
            usage_error("unknown protocol '" + v + "'");
          }
        }},
       {"--beamwidth", bench::store(ue.ue_beamwidth_deg)},
       {"--ula", [&](const std::string&) { ue.ue_ula_codebook = true; },
        false},
       {"--threshold",
        [&](const std::string& v) {
          ue.protocol_config.rss_rule.drop_threshold_db =
              std::strtod(v.c_str(), nullptr);
        }},
       {"--cells", bench::store(spec.n_cells)},
       {"--duration",
        [&](const std::string& v) {
          spec.duration =
              sim::Duration::seconds_of(std::strtod(v.c_str(), nullptr));
        }},
       {"--speed", bench::store(ue.walk_speed_mps)},
       {"--rotation-rate", bench::store(ue.rotation_rate_deg_s)},
       {"--vehicle-mph", bench::store(ue.vehicle_speed_mph)},
       {"--ssb-period",
        [&](const std::string& v) {
          spec.deployment.frame.ssb_period = sim::Duration::milliseconds(
              std::strtol(v.c_str(), nullptr, 10));
        }},
       {"--seed", bench::store(spec.seed)},
       {"--csv", bench::store(csv)},
       {"--trace-out", bench::store(trace_out)},
       {"--report-out", bench::store(report_out)},
       {"--quiet", [&](const std::string&) { quiet = true; }, false}});

  // The event log printed below is rendered from the trace.
  const bool print_log = !quiet && csv.empty();
  spec.collect_trace = !trace_out.empty() || !report_out.empty() || print_log;

  const core::ScenarioResult result = core::run_scenario(spec);

  if (!trace_out.empty() &&
      !obs::write_chrome_trace_file(*result.trace, trace_out)) {
    std::cerr << "scenario_cli: failed to write trace to " << trace_out
              << "\n";
    return 1;
  }
  if (!report_out.empty()) {
    const obs::RunReport report = core::build_run_report(spec, result);
    if (!obs::write_text_file(report_out, report.to_json())) {
      std::cerr << "scenario_cli: failed to write report to " << report_out
                << "\n";
      return 1;
    }
  }

  if (csv == "rss") {
    std::cout << "t_ms,tracked_rss_dbm\n"
              << result.neighbour_tracked_rss_dbm.csv();
    return 0;
  }
  if (csv == "gap") {
    std::cout << "t_ms,alignment_gap_db\n" << result.alignment_gap_db.csv();
    return 0;
  }
  if (csv == "snr") {
    std::cout << "t_ms,serving_snr_db\n" << result.serving_snr_db.csv();
    return 0;
  }
  if (!csv.empty()) {
    usage_error("unknown series '" + csv + "' (rss|gap|snr)");
  }

  if (print_log) {
    const obs::Narrative narrative = obs::render_narrative(*result.trace);
    if (narrative.dropped > 0) {
      std::cout << "(trace rings overflowed: " << narrative.dropped
                << " earliest events dropped, the log below has gaps)\n";
    }
    for (const obs::NarrativeLine& line : narrative.lines) {
      std::cout << st::sim::to_string(line.t) << "  ["
                << obs::to_string(line.component) << "] " << line.message
                << '\n';
    }
    std::cout << '\n';
  }

  std::cout << "scenario=" << core::to_string(ue.mobility)
            << " protocol=" << core::to_string(ue.protocol)
            << " beamwidth=" << ue.ue_beamwidth_deg
            << " seed=" << spec.seed << '\n'
            << "handovers=" << result.handovers.size()
            << " successful=" << result.successful_handovers()
            << " soft=" << result.soft_handovers() << '\n'
            << "aligned_until_first_handover="
            << format_double(100.0 * result.alignment_until_first_handover(),
                             1)
            << "%\n";
  for (const auto& [name, value] : result.counters.nonzero()) {
    std::cout << "counter " << name << "=" << value << '\n';
  }
  return 0;
}
