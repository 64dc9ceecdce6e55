// E12 — multi-UE fleet engine throughput (extension).
//
// The fleet engine runs N independent mobiles — mixed walk / rotation /
// vehicular profiles, each with its own protocol instance and derived
// random streams — against one shared three-cell deployment, sharded
// across a thread pool. This bench sweeps the fleet size and reports the
// engine's scaling: wall time per sweep, UEs simulated per second, and
// the per-UE snapshot-cache hit rate (the cache is keyed on (UE, cell,
// epoch), so fleet sharding must not dilute it). The parallel schedule is
// bit-identical to the serial one (pinned by tests/fleet/test_fleet.cpp),
// so the numbers here are pure throughput, not a different computation.
//
//   ./bench_fleet [--ues N] [--threads T] [--duration-ms D]
//                 [--preset NAME] [--report-out fleet_report.json]
//
// --preset replicates a named spec preset (paper_walk, grid_walk,
// corridor_drive, edge_ping_pong, ...) across the fleet instead of the
// default mixed walk/rotation/vehicular three-cell row — the multi-cell
// presets exercise the neighbour-ranking handover policy at fleet scale.
//
// Writes BENCH_fleet.json (same schema as BENCH_micro.json) next to the
// binary; --report-out additionally writes the machine-readable
// FleetReport JSON of the largest fleet swept.
//
// Each fleet size also gets an output digest: FNV-1a over everything the
// run computed (handovers, protocol counters, the alignment and SNR
// series, rate sums, SSB observations, events, queue high-water mark)
// and nothing about how much work that took — no wall times, no
// snapshot-cache counters. A change that only removes work must leave it
// unchanged.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "core/spec_json.hpp"
#include "fleet/engine.hpp"
#include "obs/export.hpp"

namespace {

using namespace st;
using namespace st::sim::literals;

/// A heterogeneous fleet on the shared three-cell row: profiles cycle
/// through the paper's three mobility models so every sweep exercises
/// walk, rotation, and vehicular dynamics together.
core::ScenarioSpec fleet_spec(const std::string& preset_name,
                              std::size_t n_ues, sim::Duration duration) {
  if (!preset_name.empty()) {
    // Replicate the named preset's profile across the fleet (grid_walk
    // etc. bring their own deployment shape, cell load, and policy).
    core::ScenarioSpec spec = core::preset_by_name(preset_name);
    spec.duration = duration;
    spec.seed = 1000;
    spec.ues.assign(n_ues, spec.ues.front());
    return core::SpecBuilder(std::move(spec)).build();
  }
  core::SpecBuilder builder;
  builder.cells(3).duration(duration).seed(1000);
  const core::UeProfile profiles[] = {core::preset::walking_ue(),
                                      core::preset::rotating_ue(),
                                      core::preset::vehicular_ue()};
  for (std::size_t i = 0; i < n_ues; ++i) {
    builder.ue(profiles[i % 3]);
  }
  return builder.build();
}

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(const sim::TimeSeries& series) {
    add(static_cast<std::uint64_t>(series.size()));
    for (const sim::TimeSeries::Point& p : series.points()) {
      add(static_cast<std::uint64_t>(p.t.ns()));
      add(p.value);
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// The outputs of a fleet run, hashed; see the header comment.
std::string output_digest(const fleet::FleetResult& result) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(result.ue_results.size()));
  for (const core::ScenarioResult& r : result.ue_results) {
    h.add(static_cast<std::uint64_t>(r.handovers.size()));
    for (const net::HandoverRecord& rec : r.handovers) {
      for (const std::uint64_t v :
           {std::uint64_t{rec.from}, std::uint64_t{rec.to},
            static_cast<std::uint64_t>(rec.type),
            static_cast<std::uint64_t>(rec.serving_lost.ns()),
            static_cast<std::uint64_t>(rec.access_started.ns()),
            static_cast<std::uint64_t>(rec.completed.ns()),
            std::uint64_t{rec.success}, std::uint64_t{rec.rach_attempts},
            std::uint64_t{rec.target_tx_beam}, std::uint64_t{rec.final_rx_beam},
            std::uint64_t{rec.beam_aligned_at_completion}}) {
        h.add(v);
      }
    }
    for (const auto& [name, value] : r.counters.nonzero()) {
      h.add(name);
      h.add(value);
    }
    h.add(r.neighbour_tracked_rss_dbm);
    h.add(r.neighbour_best_rss_dbm);
    h.add(r.alignment_gap_db);
    h.add(r.serving_snr_db);
    h.add(r.rate.samples);
    h.add(r.rate.served_samples);
    h.add(r.rate.bits);
    h.add(r.rate.sum_sinr_db);
    h.add(r.rate.sum_cqi);
    h.add(r.rate.outage_events);
    h.add(r.rate.outage_ms);
    h.add(r.ssb_observations);
    h.add(r.engine.events_executed);
    h.add(r.engine.queue_depth_hwm);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h.value()));
  return hex;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t only_ues = 0;   // 0 = sweep the default ladder
  unsigned n_threads = 0;     // 0 = hardware concurrency
  std::int64_t duration_ms = 5'000;
  std::string report_out;
  std::string preset_name;

  st::bench::parse_options(argc, argv,
                           {{"--ues", st::bench::store(only_ues)},
                            {"--threads", st::bench::store(n_threads)},
                            {"--duration-ms", st::bench::store(duration_ms)},
                            {"--report-out", st::bench::store(report_out)},
                            {"--preset", st::bench::store(preset_name)}});

  st::bench::print_header(
      "E12: fleet engine throughput (multi-UE scaling)",
      "extension — N mobiles on one deployment, serial == parallel "
      "bit-identically");

  std::vector<std::size_t> sweep = {1, 8, 64};
  if (only_ues > 0) {
    sweep = {only_ues};
  }

  Table table({"UEs", "threads", "wall s", "UEs/s", "sim s / wall s",
               "cache hit %", "handovers", "SSB obs"});

  // BENCH_fleet.json, BENCH_micro.json schema: a "benchmarks" array of
  // {name, ns_per_op, items_per_second}, plus named extra members.
  json::Value benchmarks = json::Value::array();
  json::Value fleet_rows = json::Value::object();
  std::vector<std::string> digests;

  for (const std::size_t n_ues : sweep) {
    const core::ScenarioSpec spec =
        fleet_spec(preset_name, n_ues, sim::Duration::milliseconds(duration_ms));
    const fleet::FleetResult result = fleet::run_fleet(spec, n_threads);

    std::size_t handovers = 0;
    for (const core::ScenarioResult& ue_result : result.ue_results) {
      handovers += ue_result.handovers.size();
    }
    table.row()
        .cell(n_ues)
        .cell(static_cast<std::size_t>(result.threads_used))
        .cell(result.wall_seconds, 3)
        .cell(result.ues_per_second(), 1)
        .cell(result.wall_seconds > 0.0
                  ? result.engine.sim_seconds / result.wall_seconds
                  : 0.0,
              1)
        .cell(100.0 * result.snapshot_cache.hit_rate(), 1)
        .cell(handovers)
        .cell(result.ssb_observations);

    const std::string digest = output_digest(result);
    digests.push_back("output digest, " + std::to_string(n_ues) +
                      " UEs: " + digest);
    benchmarks.push_back(st::bench::benchmark_json(
        "fleet/ues:" + std::to_string(n_ues),
        result.wall_seconds * 1e9 / static_cast<double>(n_ues),
        result.ues_per_second()));
    json::Value row = json::Value::object();
    row.set("wall_seconds", result.wall_seconds);
    row.set("ues_per_second", result.ues_per_second());
    row.set("snapshot_cache_hit_rate", result.snapshot_cache.hit_rate());
    row.set("threads", std::uint64_t{result.threads_used});
    row.set("output_digest", digest);
    fleet_rows.set("ues_" + std::to_string(n_ues), std::move(row));

    // The machine-readable report covers the largest fleet swept.
    if (!report_out.empty() && n_ues == sweep.back()) {
      const obs::FleetReport report = fleet::build_fleet_report(spec, result);
      if (obs::write_text_file(report_out, report.to_json())) {
        std::cout << "fleet report written to " << report_out << "\n";
      } else {
        std::cerr << "failed to write fleet report to " << report_out << "\n";
        return 1;
      }
    }
  }
  table.print(std::cout);
  for (const std::string& line : digests) {
    std::cout << line << "\n";
  }

  // The batched fast path (tentpole of the incremental-snapshot work):
  // every (UE, cell) link held hot in one FleetChannelBatch and swept at
  // 10 ms ticks — pure physics throughput, no protocol state machines.
  // ns/op is one incremental snapshot refresh plus one full beam-pair
  // sweep, the unit the >= 10x claim in docs/PERFORMANCE.md is stated in.
  // Each batched_sweeps entry is the run's snapshot-cache block plus its
  // ns_per_sweep.
  json::Value batched = json::Value::object();
  constexpr int kBatchSteps = 500;

  Table batch_table({"UEs", "links", "sweeps", "wall s", "ns/sweep",
                     "cache hit %", "incremental %"});
  for (const std::size_t n_ues : sweep) {
    const core::ScenarioSpec spec =
        fleet_spec(preset_name, n_ues, sim::Duration::milliseconds(duration_ms));
    fleet::FleetChannelBatch batch(spec);
    std::vector<phy::Channel::BestPair> pairs;
    batch.best_pairs(sim::Time::zero(), pairs);  // warm-up: cold builds
    const auto start = std::chrono::steady_clock::now();
    for (int step = 1; step <= kBatchSteps; ++step) {
      batch.best_pairs(
          sim::Time::zero() + sim::Duration::milliseconds(step * 10), pairs);
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const std::size_t links = batch.ue_count() * batch.cell_count();
    const std::size_t sweeps = static_cast<std::size_t>(kBatchSteps) * links;
    const net::SnapshotCacheStats stats = batch.stats();
    const double ns_per_sweep =
        sweeps > 0 ? wall * 1e9 / static_cast<double>(sweeps) : 0.0;
    const std::uint64_t rebuilds = stats.rebuilds();
    batch_table.row()
        .cell(n_ues)
        .cell(links)
        .cell(sweeps)
        .cell(wall, 3)
        .cell(ns_per_sweep, 0)
        .cell(100.0 * stats.hit_rate(), 1)
        .cell(rebuilds > 0 ? 100.0 * static_cast<double>(
                                         stats.incremental_builds) /
                                 static_cast<double>(rebuilds)
                           : 0.0,
              1);
    benchmarks.push_back(st::bench::benchmark_json(
        "fleet/batched_sweeps/ues:" + std::to_string(n_ues), ns_per_sweep,
        wall > 0.0 ? static_cast<double>(sweeps) / wall : 0.0));
    json::Value entry = obs::snapshot_cache_json(stats);
    entry.set("ns_per_sweep", ns_per_sweep);
    batched.set("ues_" + std::to_string(n_ues), std::move(entry));
  }
  std::cout << "\nbatched (UE,cell) sweeps, " << kBatchSteps
            << " steps x 10 ms:\n";
  batch_table.print(std::cout);

  json::Value doc = json::Value::object();
  doc.set("benchmarks", std::move(benchmarks));
  doc.set("fleet", std::move(fleet_rows));
  doc.set("batched_sweeps", std::move(batched));
  std::ofstream("BENCH_fleet.json") << doc.dump() << "\n";
  std::cout << "\nwrote BENCH_fleet.json\n"
            << "Shape check: UEs/s grows with the fleet until the thread "
               "pool saturates; the cache hit rate stays flat (per-UE "
               "keying keeps fleets from evicting each other).\n";
  return 0;
}
