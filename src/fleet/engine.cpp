#include "fleet/engine.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>

#include "fleet/parallel.hpp"

namespace st::fleet {

FleetChannelBatch::FleetChannelBatch(const core::ScenarioSpec& spec)
    : deployment_(core::make_deployment(spec)) {
  if (spec.ues.empty()) {
    throw std::invalid_argument(
        "FleetChannelBatch: fleet needs at least one UE");
  }
  environments_.reserve(spec.ues.size());
  for (std::size_t ue = 0; ue < spec.ues.size(); ++ue) {
    environments_.push_back(core::make_ue_environment(spec, ue, deployment_));
  }
}

std::size_t FleetChannelBatch::cell_count() const noexcept {
  return environments_.front()->cell_count();
}

void FleetChannelBatch::best_pairs(sim::Time t,
                                   std::vector<phy::Channel::BestPair>& out) {
  const std::size_t cells = cell_count();
  out.resize(environments_.size() * cells);
  for (std::size_t ue = 0; ue < environments_.size(); ++ue) {
    net::RadioEnvironment& env = *environments_[ue];
    for (std::size_t cell = 0; cell < cells; ++cell) {
      out[ue * cells + cell] =
          env.ground_truth_best_pair(static_cast<net::CellId>(cell), t);
    }
  }
}

net::SnapshotCacheStats FleetChannelBatch::stats() const {
  net::SnapshotCacheStats total;
  for (const auto& env : environments_) {
    total.merge(env->snapshot_stats());
  }
  return total;
}

FleetResult run_fleet(const core::ScenarioSpec& spec, unsigned n_threads,
                      const RunControl& control) {
  if (spec.ues.empty()) {
    throw std::invalid_argument("run_fleet: fleet needs at least one UE");
  }
  const net::Deployment deployment = core::make_deployment(spec);

  FleetResult result;
  result.threads_used = resolve_threads(spec.ues.size(), n_threads);

  const std::size_t total = spec.ues.size();
  std::atomic<std::size_t> completed{0};
  const auto start = std::chrono::steady_clock::now();
  result.ue_results = parallel_map(total, n_threads, [&](std::size_t ue) {
    core::ScenarioResult ue_result =
        core::run_scenario_ue(spec, ue, deployment, control.cancel);
    if (control.on_ue_complete) {
      control.on_ue_complete(completed.fetch_add(1) + 1, total);
    }
    return ue_result;
  });
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (const core::ScenarioResult& ue_result : result.ue_results) {
    result.engine.merge(ue_result.engine);
    result.snapshot_cache.merge(ue_result.snapshot_cache);
    result.rate.merge(ue_result.rate);
    result.ssb_observations += ue_result.ssb_observations;
    result.cancelled = result.cancelled || ue_result.cancelled;
  }
  return result;
}

obs::FleetReport build_fleet_report(const core::ScenarioSpec& spec,
                                    const FleetResult& result) {
  obs::FleetReport report;
  report.seed = spec.seed;
  report.duration_ms = spec.duration.ms();
  report.n_cells = spec.n_cells;
  report.n_ues = result.ue_results.size();
  report.threads = result.threads_used;

  LogLinearHistogram alignment;
  LogLinearHistogram interruption;
  LogLinearHistogram rach;
  LogLinearHistogram throughput;
  LogLinearHistogram outage;
  report.rate_enabled = spec.rate.enabled;

  report.per_cell.resize(spec.n_cells);
  for (std::size_t cell = 0; cell < spec.n_cells; ++cell) {
    report.per_cell[cell].cell = cell;
    report.per_cell[cell].load =
        cell < spec.cell_load.size() ? spec.cell_load[cell] : 0.0;
  }

  for (std::size_t ue = 0; ue < result.ue_results.size(); ++ue) {
    const core::ScenarioResult& ue_result = result.ue_results[ue];
    const core::UeProfile& profile = spec.ues.at(ue);

    obs::FleetUeReport row;
    row.ue = ue;
    row.scenario = std::string(core::to_string(profile.mobility));
    row.protocol = std::string(core::to_string(profile.protocol));
    row.seed = core::fleet_ue_seed(spec.seed, ue);
    row.handovers_total = ue_result.handovers.size();
    row.handovers_successful = ue_result.successful_handovers();
    row.soft = ue_result.soft_handovers();
    row.hard = ue_result.hard_handovers();
    row.ssb_observations = ue_result.ssb_observations;

    double interruption_sum = 0.0;
    std::uint64_t interruption_n = 0;
    const sim::Duration window = profile.handover_policy.ping_pong_window;
    const net::HandoverRecord* prev = nullptr;
    for (const net::HandoverRecord& h : ue_result.handovers) {
      row.rach_attempts += h.rach_attempts;
      if (!h.success) {
        continue;
      }
      const double ms = h.interruption().ms();
      interruption.add(ms);
      rach.add(static_cast<double>(h.rach_attempts));
      interruption_sum += ms;
      ++interruption_n;
      if (h.to < report.per_cell.size()) {
        ++report.per_cell[h.to].handovers_in;
      }
      if (h.from < report.per_cell.size()) {
        ++report.per_cell[h.from].handovers_out;
      }
      if (prev != nullptr && net::is_ping_pong(*prev, h, window)) {
        ++row.ping_pongs;
        // The far end of the round trip is the cell the return leg left.
        if (h.from < report.per_cell.size()) {
          ++report.per_cell[h.from].ping_pongs;
        }
      }
      prev = &h;
    }
    row.mean_interruption_ms =
        interruption_n > 0
            ? interruption_sum / static_cast<double>(interruption_n)
            : 0.0;

    // Same convention as the bench aggregates: a UE only contributes an
    // alignment sample when it produced tracking samples at all (the
    // reactive baseline has no neighbour series by construction).
    if (!ue_result.alignment_gap_db.empty()) {
      row.alignment_fraction = ue_result.alignment_until_first_handover();
      alignment.add(row.alignment_fraction);
    }

    if (spec.rate.enabled) {
      row.throughput_mbps = ue_result.rate.mean_throughput_mbps();
      row.mean_sinr_db = ue_result.rate.mean_sinr_db();
      row.outage_events = ue_result.rate.outage_events;
      row.outage_ms = ue_result.rate.outage_ms;
      throughput.add(row.throughput_mbps);
      outage.add(row.outage_ms);
      report.mean_throughput_mbps += row.throughput_mbps;
      report.outage_ms_total += row.outage_ms;
      report.outage_events_total += row.outage_events;
    }

    report.handovers_total += row.handovers_total;
    report.handovers_successful += row.handovers_successful;
    report.soft += row.soft;
    report.hard += row.hard;
    report.rach_attempts += row.rach_attempts;
    report.ping_pongs += row.ping_pongs;
    report.counters.merge(ue_result.counters);
    report.ues.push_back(std::move(row));
  }
  report.ssb_observations = result.ssb_observations;
  report.ping_pong_rate =
      report.handovers_successful > 0
          ? static_cast<double>(report.ping_pongs) /
                static_cast<double>(report.handovers_successful)
          : 0.0;

  report.alignment_fraction = obs::HistogramSummary::from(alignment);
  report.interruption_ms = obs::HistogramSummary::from(interruption);
  report.rach_attempts_per_handover = obs::HistogramSummary::from(rach);
  report.throughput_mbps = obs::HistogramSummary::from(throughput);
  report.outage_ms = obs::HistogramSummary::from(outage);
  if (spec.rate.enabled && !report.ues.empty()) {
    report.mean_throughput_mbps /= static_cast<double>(report.ues.size());
  }

  report.engine = result.engine;
  report.snapshot_cache = result.snapshot_cache;

  report.wall_seconds = result.wall_seconds;
  report.ues_per_second = result.ues_per_second();
  return report;
}

}  // namespace st::fleet
