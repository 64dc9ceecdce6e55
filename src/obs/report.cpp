#include "obs/report.hpp"

#include <cstdio>

#include "common/build_info.hpp"
#include "phy/simd.hpp"

namespace st::obs {

namespace {

/// The document as reports hand it over: compact, newline-terminated.
[[nodiscard]] std::string document_text(const json::Value& doc) {
  std::string text = doc.dump();
  text += '\n';
  return text;
}

}  // namespace

json::Value histogram_json(const HistogramSummary& summary) {
  json::Value v = json::Value::object();
  v.set("count", summary.count);
  v.set("mean", summary.mean);
  v.set("p50", summary.p50);
  v.set("p95", summary.p95);
  v.set("p99", summary.p99);
  v.set("p999", summary.p999);
  v.set("max", summary.max);
  return v;
}

json::Value provenance_json(const ProvenanceReport& provenance) {
  json::Value v = json::Value::object();
  v.set("git_describe", provenance.git_describe);
  v.set("compiler", provenance.compiler);
  v.set("build_type", provenance.build_type);
  v.set("simd_dispatch", provenance.simd_dispatch);
  return v;
}

json::Value engine_json(const sim::EngineStats& engine) {
  json::Value v = json::Value::object();
  v.set("events_executed", engine.events_executed);
  v.set("queue_depth_hwm", engine.queue_depth_hwm);
  v.set("wall_seconds", engine.wall_seconds);
  v.set("sim_seconds", engine.sim_seconds);
  v.set("wall_per_sim_second", engine.wall_per_sim_second());
  return v;
}

json::Value snapshot_cache_json(const phy::SnapshotCacheStats& cache) {
  json::Value v = json::Value::object();
  v.set("hits", cache.hits);
  v.set("refreshes", cache.refreshes);
  v.set("certified_misses", cache.certified_misses);
  v.set("cold_misses", cache.cold_misses);
  v.set("invalidations", cache.invalidations);
  v.set("pair_sweeps", cache.pair_sweeps);
  v.set("rx_sweeps", cache.rx_sweeps);
  v.set("full_builds", cache.full_builds);
  v.set("incremental_builds", cache.incremental_builds);
  v.set("geometry_reuses", cache.geometry_reuses);
  v.set("shadow_reuses", cache.shadow_reuses);
  v.set("blockage_reuses", cache.blockage_reuses);
  v.set("azimuth_reuses", cache.azimuth_reuses);
  v.set("hit_rate", cache.hit_rate());
  return v;
}

json::Value counters_json(const ProtocolCounters& counters) {
  json::Value v = json::Value::object();
  for (const auto& [name, value] : counters.nonzero()) {
    v.set(name, value);
  }
  return v;
}

HistogramSummary HistogramSummary::from(const LogLinearHistogram& h) {
  HistogramSummary s;
  s.count = h.count();
  s.mean = h.mean();
  s.p50 = h.p50();
  s.p95 = h.p95();
  s.p99 = h.p99();
  s.p999 = h.p999();
  s.max = h.max();
  return s;
}

ProvenanceReport ProvenanceReport::current() {
  ProvenanceReport p;
  const BuildInfo& info = build_info();
  p.git_describe = std::string(info.git_describe);
  p.compiler = std::string(info.compiler);
  p.build_type = std::string(info.build_type);
  p.simd_dispatch = phy::simd::mode();
  return p;
}

std::string RunReport::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("schema", schema);
  doc.set("provenance", provenance_json(provenance));

  json::Value echo = json::Value::object();
  echo.set("mobility", scenario);
  echo.set("protocol", protocol);
  if (!beam_policy.empty()) {
    echo.set("beam_policy", beam_policy);
  }
  echo.set("seed", seed);
  echo.set("duration_ms", duration_ms);
  echo.set("ue_beamwidth_deg", ue_beamwidth_deg);
  echo.set("n_cells", n_cells);
  doc.set("scenario", std::move(echo));

  json::Value ho = json::Value::object();
  ho.set("total", handover.total);
  ho.set("successful", handover.successful);
  ho.set("soft", handover.soft);
  ho.set("hard", handover.hard);
  ho.set("first_interruption_ms", handover.first_interruption_ms);
  ho.set("mean_interruption_ms", handover.mean_interruption_ms);
  ho.set("rx_beam_switches", handover.rx_beam_switches);
  ho.set("tx_beam_switches", handover.tx_beam_switches);
  ho.set("alignment_fraction", handover.alignment_fraction);
  ho.set("alignment_until_first_handover",
         handover.alignment_until_first_handover);
  ho.set("ssb_observations", handover.ssb_observations);
  ho.set("ping_pongs", handover.ping_pongs);
  doc.set("handover", std::move(ho));

  if (rate_enabled) {
    json::Value throughput = json::Value::object();
    throughput.set("samples", rate.samples);
    throughput.set("served_samples", rate.served_samples);
    throughput.set("mean_mbps", rate.mean_throughput_mbps());
    throughput.set("mean_sinr_db", rate.mean_sinr_db());
    throughput.set("mean_cqi", rate.mean_cqi());
    doc.set("throughput", std::move(throughput));

    json::Value outage = json::Value::object();
    outage.set("events", rate.outage_events);
    outage.set("total_ms", rate.outage_ms);
    outage.set("longest_ms", rate.longest_outage_ms);
    outage.set("fraction", rate.outage_fraction());
    doc.set("outage", std::move(outage));
  }

  doc.set("engine", engine_json(engine));
  doc.set("snapshot_cache", snapshot_cache_json(snapshot_cache));
  doc.set("counters", counters_json(counters));

  json::Value digests = json::Value::object();
  for (const auto& [name, summary] : latencies) {
    digests.set(name, histogram_json(summary));
  }
  doc.set("latencies", std::move(digests));

  json::Value trace = json::Value::object();
  trace.set("events", trace_events);
  trace.set("dropped", trace_dropped);
  doc.set("trace", std::move(trace));
  return document_text(doc);
}

std::string RunReport::summary_text() const {
  std::string out;
  char buf[256];
  const auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
    out += '\n';
  };

  line("== run report: %s / %s (seed %llu) ==", scenario.c_str(),
       protocol.c_str(), static_cast<unsigned long long>(seed));
  line("  sim duration     %.1f ms  (wall %.3f s, %.4f wall-s/sim-s)",
       duration_ms, engine.wall_seconds, engine.wall_per_sim_second());
  line("  handovers        %llu/%llu successful (%llu soft, %llu hard)",
       static_cast<unsigned long long>(handover.successful),
       static_cast<unsigned long long>(handover.total),
       static_cast<unsigned long long>(handover.soft),
       static_cast<unsigned long long>(handover.hard));
  if (handover.first_interruption_ms >= 0.0) {
    line("  interruption     first %.3f ms, mean %.3f ms",
         handover.first_interruption_ms, handover.mean_interruption_ms);
  } else {
    line("  interruption     (no successful handover)");
  }
  line("  beam switches    %llu rx, %llu tx",
       static_cast<unsigned long long>(handover.rx_beam_switches),
       static_cast<unsigned long long>(handover.tx_beam_switches));
  line("  alignment        %.1f%% of tracked samples within 3 dB "
       "(%.1f%% until first handover)",
       100.0 * handover.alignment_fraction,
       100.0 * handover.alignment_until_first_handover);
  line("  ssb budget       %llu observations",
       static_cast<unsigned long long>(handover.ssb_observations));
  if (rate_enabled) {
    line("  throughput       %.1f Mbps mean (SINR %.1f dB, CQI %.1f)",
         rate.mean_throughput_mbps(), rate.mean_sinr_db(), rate.mean_cqi());
    line("  outage           %llu events, %.1f ms total (longest %.1f ms, "
         "%.2f%% of airtime)",
         static_cast<unsigned long long>(rate.outage_events), rate.outage_ms,
         rate.longest_outage_ms, 100.0 * rate.outage_fraction());
  }
  line("  engine           %llu events, queue hwm %llu",
       static_cast<unsigned long long>(engine.events_executed),
       static_cast<unsigned long long>(engine.queue_depth_hwm));
  line("  snapshot cache   %.1f%% hit rate (%llu hits, %llu refreshes / "
       "%llu cold, %llu evicted)",
       100.0 * snapshot_cache.hit_rate(),
       static_cast<unsigned long long>(snapshot_cache.hits),
       static_cast<unsigned long long>(snapshot_cache.refreshes),
       static_cast<unsigned long long>(snapshot_cache.cold_misses),
       static_cast<unsigned long long>(snapshot_cache.invalidations));
  const auto tracking = latencies.find("tracking_loop_ms");
  if (tracking != latencies.end() && tracking->second.count > 0) {
    line("  tracking loop    p50 %.1f ms, p95 %.1f ms (%llu reactions)",
         tracking->second.p50, tracking->second.p95,
         static_cast<unsigned long long>(tracking->second.count));
  }
  return out;
}

std::string FleetReport::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("schema", schema);
  doc.set("provenance", provenance_json(provenance));

  json::Value echo = json::Value::object();
  echo.set("seed", seed);
  echo.set("duration_ms", duration_ms);
  echo.set("n_cells", n_cells);
  echo.set("n_ues", n_ues);
  echo.set("threads", threads);
  doc.set("fleet", std::move(echo));

  json::Value ho = json::Value::object();
  ho.set("total", handovers_total);
  ho.set("successful", handovers_successful);
  ho.set("soft", soft);
  ho.set("hard", hard);
  ho.set("rach_attempts", rach_attempts);
  ho.set("ssb_observations", ssb_observations);
  ho.set("ping_pongs", ping_pongs);
  ho.set("ping_pong_rate", ping_pong_rate);
  doc.set("handover", std::move(ho));

  if (rate_enabled) {
    json::Value throughput = json::Value::object();
    throughput.set("mean_mbps", mean_throughput_mbps);
    doc.set("throughput", std::move(throughput));
    json::Value outage = json::Value::object();
    outage.set("events", outage_events_total);
    outage.set("total_ms", outage_ms_total);
    doc.set("outage", std::move(outage));
  }

  json::Value cells = json::Value::array();
  for (const FleetCellReport& cell : per_cell) {
    json::Value row = json::Value::object();
    row.set("cell", cell.cell);
    row.set("load", cell.load);
    row.set("handovers_in", cell.handovers_in);
    row.set("handovers_out", cell.handovers_out);
    row.set("ping_pongs", cell.ping_pongs);
    cells.push_back(std::move(row));
  }
  doc.set("per_cell", std::move(cells));

  json::Value distributions = json::Value::object();
  distributions.set("alignment_fraction", histogram_json(alignment_fraction));
  distributions.set("interruption_ms", histogram_json(interruption_ms));
  distributions.set("rach_attempts_per_handover",
                    histogram_json(rach_attempts_per_handover));
  if (rate_enabled) {
    distributions.set("throughput_mbps", histogram_json(throughput_mbps));
    distributions.set("outage_ms", histogram_json(outage_ms));
  }
  doc.set("distributions", std::move(distributions));

  doc.set("engine", engine_json(engine));
  doc.set("snapshot_cache", snapshot_cache_json(snapshot_cache));
  doc.set("counters", counters_json(counters));

  json::Value timing = json::Value::object();
  timing.set("wall_seconds", wall_seconds);
  timing.set("ues_per_second", ues_per_second);
  doc.set("timing", std::move(timing));

  json::Value rows = json::Value::array();
  for (const FleetUeReport& ue : ues) {
    json::Value row = json::Value::object();
    row.set("ue", ue.ue);
    row.set("scenario", ue.scenario);
    row.set("protocol", ue.protocol);
    row.set("seed", ue.seed);
    row.set("handovers_total", ue.handovers_total);
    row.set("handovers_successful", ue.handovers_successful);
    row.set("soft", ue.soft);
    row.set("hard", ue.hard);
    row.set("mean_interruption_ms", ue.mean_interruption_ms);
    row.set("alignment_fraction", ue.alignment_fraction);
    row.set("rach_attempts", ue.rach_attempts);
    row.set("ssb_observations", ue.ssb_observations);
    row.set("ping_pongs", ue.ping_pongs);
    if (rate_enabled) {
      row.set("throughput_mbps", ue.throughput_mbps);
      row.set("mean_sinr_db", ue.mean_sinr_db);
      row.set("outage_events", ue.outage_events);
      row.set("outage_ms", ue.outage_ms);
    }
    rows.push_back(std::move(row));
  }
  doc.set("ues", std::move(rows));
  return document_text(doc);
}

}  // namespace st::obs
