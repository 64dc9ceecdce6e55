// Shared helpers for the benchmark harness.
//
// Every bench binary regenerates one table/figure of the paper's
// evaluation (see DESIGN.md §4) and prints the rows/series the paper
// reports. All runs are seeded; rerunning a binary reproduces its output
// bit for bit. Configurations are ScenarioSpecs, usually started from the
// presets in core/scenario_spec.hpp (preset::paper_walk() etc.) so every
// binary shares one definition of the paper's setups.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/scenario.hpp"
#include "core/spec_json.hpp"
#include "fleet/parallel.hpp"
#include "obs/export.hpp"
#include "options.hpp"

namespace st::bench {

/// Observability outputs shared by the scenario-driven binaries:
/// `--trace-out=<path>` writes a Chrome/Perfetto trace.json of one
/// instrumented run, `--report-out=<path>` the machine-readable RunReport
/// JSON. Both default off, so the measured runs stay untraced.
struct ObsOptions {
  std::string trace_out;
  std::string report_out;

  [[nodiscard]] bool enabled() const noexcept {
    return !trace_out.empty() || !report_out.empty();
  }
};

/// Strip `--trace-out` / `--report-out` from argv so the binary's own
/// parsing — or google-benchmark's — never sees them.
[[nodiscard]] inline ObsOptions consume_obs_options(int& argc, char** argv) {
  ObsOptions options;
  consume_options(argc, argv,
                  {{"--trace-out", store(options.trace_out)},
                   {"--report-out", store(options.report_out)}});
  return options;
}

/// One entry of a BENCH_*.json `benchmarks` array (the BENCH_micro.json
/// schema).
[[nodiscard]] inline json::Value benchmark_json(std::string_view name,
                                                double ns_per_op,
                                                double items_per_second) {
  json::Value entry = json::Value::object();
  entry.set("name", name);
  entry.set("ns_per_op", ns_per_op);
  entry.set("items_per_second", items_per_second);
  return entry;
}

/// Re-run `spec` once with tracing on and write whichever outputs were
/// requested. Returns false (with a stderr note) if a file failed to open.
inline bool write_observability(const ObsOptions& options,
                                core::ScenarioSpec spec) {
  if (!options.enabled()) {
    return true;
  }
  spec.collect_trace = true;
  const core::ScenarioResult result = core::run_scenario(spec);
  bool ok = true;
  if (!options.trace_out.empty()) {
    if (obs::write_chrome_trace_file(*result.trace, options.trace_out)) {
      std::cout << "trace written to " << options.trace_out << "\n";
    } else {
      std::cerr << "failed to write trace to " << options.trace_out << "\n";
      ok = false;
    }
  }
  if (!options.report_out.empty()) {
    const obs::RunReport report = core::build_run_report(spec, result);
    if (obs::write_text_file(options.report_out, report.to_json())) {
      std::cout << "report written to " << options.report_out << "\n";
    } else {
      std::cerr << "failed to write report to " << options.report_out << "\n";
      ok = false;
    }
  }
  return ok;
}

/// Scenario shaping shared by the scenario-driven binaries (flag parity
/// with bench_fleet): `--preset=<name>` collapses the bench's default
/// scenario axis to one named spec preset (core::preset_by_name — the
/// multi-cell presets bring their own deployment shape, cell load, and
/// handover policy), `--duration-ms=<D>` overrides the per-run duration.
/// Both default off.
struct SpecOptions {
  std::string preset;
  std::int64_t duration_ms = 0;
};

/// Strip `--preset` / `--duration-ms` from argv, like consume_obs_options,
/// so the two passes compose in either order.
[[nodiscard]] inline SpecOptions consume_spec_options(int& argc, char** argv) {
  SpecOptions options;
  consume_options(argc, argv,
                  {{"--preset", store(options.preset)},
                   {"--duration-ms", store(options.duration_ms)}});
  return options;
}

/// One labelled spec per swept scenario.
struct LabelledSpec {
  std::string label;
  core::ScenarioSpec spec;
};

/// The scenario axis of a mobility-sweeping bench: by default one paper
/// preset per mobility in `default_mobilities` (at `default_duration_ms`
/// when positive, otherwise each preset's own duration); `--preset`
/// replaces the whole axis with the named preset and `--duration-ms`
/// overrides the duration either way.
[[nodiscard]] inline std::vector<LabelledSpec> scenario_axis(
    const SpecOptions& options,
    std::initializer_list<core::MobilityScenario> default_mobilities,
    std::int64_t default_duration_ms = 0) {
  const std::int64_t duration_ms =
      options.duration_ms > 0 ? options.duration_ms : default_duration_ms;
  const auto with_duration = [&](core::ScenarioSpec spec) {
    if (duration_ms > 0) {
      spec.duration = sim::Duration::milliseconds(duration_ms);
    }
    return core::SpecBuilder(std::move(spec)).build();
  };
  std::vector<LabelledSpec> axis;
  if (!options.preset.empty()) {
    axis.push_back(
        {options.preset, with_duration(core::preset_by_name(options.preset))});
    return axis;
  }
  for (const core::MobilityScenario mobility : default_mobilities) {
    axis.push_back({std::string(core::to_string(mobility)),
                    with_duration(core::preset::paper(mobility))});
  }
  return axis;
}

/// Repetition seeds used across benches (arbitrary but fixed).
[[nodiscard]] inline std::vector<std::uint64_t> seeds(std::size_t n) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(1000 + 7919 * i);  // spread out; derive_seed decorrelates
  }
  return out;
}

/// Aggregated protocol outcomes over a batch of scenario runs.
struct Aggregate {
  SuccessRate handover_success;       ///< completed handovers / attempts
  SuccessRate soft_fraction;          ///< soft / completed
  SuccessRate aligned_at_completion;  ///< Fig. 2c criterion per handover
  SampleSet interruption_ms;          ///< successful handovers only
  SampleSet alignment_fraction;       ///< per run: time-aligned fraction
  SampleSet rach_attempts;

  void absorb(const core::ScenarioResult& result) {
    for (const auto& h : result.handovers) {
      handover_success.record(h.success);
      if (h.success) {
        soft_fraction.record(h.type == net::HandoverType::kSoft);
        aligned_at_completion.record(h.beam_aligned_at_completion);
        interruption_ms.add(h.interruption().ms());
        rach_attempts.add(static_cast<double>(h.rach_attempts));
      }
    }
    if (!result.alignment_gap_db.empty()) {
      // The paper's criterion: alignment maintained *until the handover
      // concluded* (post-handover tracking of whatever neighbour remains
      // is a different, often hopeless, task and would pollute the
      // metric).
      alignment_fraction.add(result.alignment_until_first_handover());
    }
  }
};

/// Run one spec across `run_seeds` and aggregate the outcomes. The runs
/// are sharded over fleet::parallel_map's thread pool and absorbed in
/// seed order once every worker has joined. Each run is a pure function
/// of (spec, seed) and absorption order is the only aggregation-order
/// effect, so the Aggregate is bit-identical for any thread count (pinned
/// by tests/core/test_batch_runner.cpp). `n_threads == 0` uses the
/// hardware concurrency; 1 runs serially on the calling thread.
[[nodiscard]] inline Aggregate run_batch(
    const core::ScenarioSpec& spec,
    const std::vector<std::uint64_t>& run_seeds, unsigned n_threads = 0) {
  const std::vector<core::ScenarioResult> results = fleet::parallel_map(
      run_seeds.size(), n_threads, [&](std::size_t i) {
        core::ScenarioSpec run_spec = spec;
        run_spec.seed = run_seeds[i];
        return core::run_scenario(run_spec);
      });
  Aggregate agg;
  for (const core::ScenarioResult& result : results) {
    agg.absorb(result);
  }
  return agg;
}

inline void print_header(std::string_view title, std::string_view paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "reproduces: " << paper_ref << "\n\n";
}

/// "62.5% [55.1, 69.3]" — rate with its Wilson 95% interval.
[[nodiscard]] inline std::string rate_with_ci(const SuccessRate& r) {
  const auto [lo, hi] = r.wilson95();
  return format_double(100.0 * r.rate(), 1) + "% [" +
         format_double(100.0 * lo, 1) + ", " + format_double(100.0 * hi, 1) +
         "]";
}

}  // namespace st::bench
