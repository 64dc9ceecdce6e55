#include "obs/report.hpp"

#include <cmath>
#include <cstdio>

#include "common/build_info.hpp"
#include "phy/simd.hpp"

namespace st::obs {

namespace {

[[nodiscard]] std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

[[nodiscard]] std::string num(double v) {
  if (!std::isfinite(v)) {
    return "null";  // JSON has no NaN/Inf
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

[[nodiscard]] std::string num(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Tiny append-only pretty printer; enough structure for one document.
class JsonOut {
 public:
  void open(std::string_view key = {}) { begin(key, '{'); }
  void open_array(std::string_view key) { begin(key, '['); }
  void close() { end('}'); }
  void close_array() { end(']'); }

  void field(std::string_view key, std::string_view string_value) {
    std::string rendered;
    rendered += '"';
    rendered += json_escape(string_value);
    rendered += '"';
    item(key, rendered);
  }
  void field(std::string_view key, double v) { item(key, num(v)); }
  void field(std::string_view key, std::uint64_t v) { item(key, num(v)); }

  [[nodiscard]] std::string take() {
    out_ += '\n';
    // Appending grows the capacity geometrically, up to twice the text;
    // the service stores one report per finished job, so hand over a
    // string sized to its text.
    out_.shrink_to_fit();
    return std::move(out_);
  }

 private:
  void begin(std::string_view key, char bracket) {
    comma();
    indent();
    if (!key.empty()) {
      out_ += '"';
      out_ += json_escape(key);
      out_ += "\": ";
    }
    out_ += bracket;
    out_ += '\n';
    ++depth_;
    first_ = true;
  }

  void end(char bracket) {
    --depth_;
    out_ += '\n';
    indent();
    out_ += bracket;
    first_ = false;
  }

  void item(std::string_view key, const std::string& rendered) {
    comma();
    indent();
    out_ += '"';
    out_ += json_escape(key);
    out_ += "\": ";
    out_ += rendered;
    first_ = false;
  }

  void comma() {
    if (!first_ && !out_.empty()) {
      out_ += ",\n";
    } else if (!out_.empty() && out_.back() != '\n') {
      out_ += '\n';
    }
    // After closing a brace `first_` is false, so the comma above covers
    // the sibling case; nothing else to do.
  }

  void indent() { out_.append(2 * static_cast<std::size_t>(depth_), ' '); }

  std::string out_;
  int depth_ = 0;
  bool first_ = true;
};

void write_summary(JsonOut& json, std::string_view key,
                   const HistogramSummary& s) {
  json.open(key);
  json.field("count", s.count);
  json.field("mean", s.mean);
  json.field("p50", s.p50);
  json.field("p95", s.p95);
  json.field("p99", s.p99);
  json.field("p999", s.p999);
  json.field("max", s.max);
  json.close();
}

void write_provenance(JsonOut& json, const ProvenanceReport& p) {
  json.open("provenance");
  json.field("git_describe", p.git_describe);
  json.field("compiler", p.compiler);
  json.field("build_type", p.build_type);
  json.field("simd_dispatch", p.simd_dispatch);
  json.close();
}

void write_engine(JsonOut& json, const sim::EngineStats& engine) {
  json.open("engine");
  json.field("events_executed", engine.events_executed);
  json.field("queue_depth_hwm", engine.queue_depth_hwm);
  json.field("wall_seconds", engine.wall_seconds);
  json.field("sim_seconds", engine.sim_seconds);
  json.field("wall_per_sim_second", engine.wall_per_sim_second());
  json.close();
}

void write_snapshot_cache(JsonOut& json,
                          const phy::SnapshotCacheStats& cache) {
  json.open("snapshot_cache");
  json.field("hits", cache.hits);
  json.field("refreshes", cache.refreshes);
  json.field("certified_misses", cache.certified_misses);
  json.field("cold_misses", cache.cold_misses);
  json.field("invalidations", cache.invalidations);
  json.field("pair_sweeps", cache.pair_sweeps);
  json.field("rx_sweeps", cache.rx_sweeps);
  json.field("full_builds", cache.full_builds);
  json.field("incremental_builds", cache.incremental_builds);
  json.field("geometry_reuses", cache.geometry_reuses);
  json.field("shadow_reuses", cache.shadow_reuses);
  json.field("blockage_reuses", cache.blockage_reuses);
  json.field("azimuth_reuses", cache.azimuth_reuses);
  json.field("hit_rate", cache.hit_rate());
  json.close();
}

/// The counters that fired, in name order (the enum's order).
void write_counters(JsonOut& json, const ProtocolCounters& counters) {
  json.open("counters");
  for (const auto& [name, value] : counters.nonzero()) {
    json.field(name, value);
  }
  json.close();
}

}  // namespace

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
  JsonOut json;
  json.open();
  json.field("schema", schema);
  write_provenance(json, provenance);

  json.open("scenario");
  json.field("mobility", scenario);
  json.field("protocol", protocol);
  if (!beam_policy.empty()) {
    json.field("beam_policy", beam_policy);
  }
  json.field("seed", seed);
  json.field("duration_ms", duration_ms);
  json.field("ue_beamwidth_deg", ue_beamwidth_deg);
  json.field("n_cells", n_cells);
  json.close();

  json.open("handover");
  json.field("total", handover.total);
  json.field("successful", handover.successful);
  json.field("soft", handover.soft);
  json.field("hard", handover.hard);
  json.field("first_interruption_ms", handover.first_interruption_ms);
  json.field("mean_interruption_ms", handover.mean_interruption_ms);
  json.field("rx_beam_switches", handover.rx_beam_switches);
  json.field("tx_beam_switches", handover.tx_beam_switches);
  json.field("alignment_fraction", handover.alignment_fraction);
  json.field("alignment_until_first_handover",
             handover.alignment_until_first_handover);
  json.field("ssb_observations", handover.ssb_observations);
  json.field("ping_pongs", handover.ping_pongs);
  json.close();

  if (rate_enabled) {
    json.open("throughput");
    json.field("samples", rate.samples);
    json.field("served_samples", rate.served_samples);
    json.field("mean_mbps", rate.mean_throughput_mbps());
    json.field("mean_sinr_db", rate.mean_sinr_db());
    json.field("mean_cqi", rate.mean_cqi());
    json.close();

    json.open("outage");
    json.field("events", rate.outage_events);
    json.field("total_ms", rate.outage_ms);
    json.field("longest_ms", rate.longest_outage_ms);
    json.field("fraction", rate.outage_fraction());
    json.close();
  }

  write_engine(json, engine);
  write_snapshot_cache(json, snapshot_cache);
  write_counters(json, counters);

  json.open("gauges");
  for (const auto& [name, value] : gauges) {
    json.field(name, value);
  }
  json.close();

  json.open("latencies");
  for (const auto& [name, summary] : latencies) {
    write_summary(json, name, summary);
  }
  json.close();

  json.open("trace");
  json.field("events", trace_events);
  json.field("dropped", trace_dropped);
  json.close();

  json.close();
  return json.take();
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
  JsonOut json;
  json.open();
  json.field("schema", schema);
  write_provenance(json, provenance);

  json.open("fleet");
  json.field("seed", seed);
  json.field("duration_ms", duration_ms);
  json.field("n_cells", n_cells);
  json.field("n_ues", n_ues);
  json.field("threads", threads);
  json.close();

  json.open("handover");
  json.field("total", handovers_total);
  json.field("successful", handovers_successful);
  json.field("soft", soft);
  json.field("hard", hard);
  json.field("rach_attempts", rach_attempts);
  json.field("ssb_observations", ssb_observations);
  json.field("ping_pongs", ping_pongs);
  json.field("ping_pong_rate", ping_pong_rate);
  json.close();

  if (rate_enabled) {
    json.open("throughput");
    json.field("mean_mbps", mean_throughput_mbps);
    json.close();
    json.open("outage");
    json.field("events", outage_events_total);
    json.field("total_ms", outage_ms_total);
    json.close();
  }

  json.open_array("per_cell");
  for (const FleetCellReport& cell : per_cell) {
    json.open();
    json.field("cell", cell.cell);
    json.field("load", cell.load);
    json.field("handovers_in", cell.handovers_in);
    json.field("handovers_out", cell.handovers_out);
    json.field("ping_pongs", cell.ping_pongs);
    json.close();
  }
  json.close_array();

  json.open("distributions");
  write_summary(json, "alignment_fraction", alignment_fraction);
  write_summary(json, "interruption_ms", interruption_ms);
  write_summary(json, "rach_attempts_per_handover", rach_attempts_per_handover);
  if (rate_enabled) {
    write_summary(json, "throughput_mbps", throughput_mbps);
    write_summary(json, "outage_ms", outage_ms);
  }
  json.close();

  write_engine(json, engine);
  write_snapshot_cache(json, snapshot_cache);
  write_counters(json, counters);

  json.open("timing");
  json.field("wall_seconds", wall_seconds);
  json.field("ues_per_second", ues_per_second);
  json.close();

  json.open_array("ues");
  for (const FleetUeReport& ue : ues) {
    json.open();
    json.field("ue", ue.ue);
    json.field("scenario", ue.scenario);
    json.field("protocol", ue.protocol);
    json.field("seed", ue.seed);
    json.field("handovers_total", ue.handovers_total);
    json.field("handovers_successful", ue.handovers_successful);
    json.field("soft", ue.soft);
    json.field("hard", ue.hard);
    json.field("mean_interruption_ms", ue.mean_interruption_ms);
    json.field("alignment_fraction", ue.alignment_fraction);
    json.field("rach_attempts", ue.rach_attempts);
    json.field("ssb_observations", ue.ssb_observations);
    json.field("ping_pongs", ue.ping_pongs);
    if (rate_enabled) {
      json.field("throughput_mbps", ue.throughput_mbps);
      json.field("mean_sinr_db", ue.mean_sinr_db);
      json.field("outage_events", ue.outage_events);
      json.field("outage_ms", ue.outage_ms);
    }
    json.close();
  }
  json.close_array();

  json.close();
  return json.take();
}

std::string FleetReport::summary_text() const {
  std::string out;
  char buf[256];
  const auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
    out += '\n';
  };

  line("== fleet report: %llu UEs, %llu cells (seed %llu) ==",
       static_cast<unsigned long long>(n_ues),
       static_cast<unsigned long long>(n_cells),
       static_cast<unsigned long long>(seed));
  line("  sim duration     %.1f ms per UE  (wall %.3f s over %llu threads, "
       "%.2f UEs/s)",
       duration_ms, wall_seconds, static_cast<unsigned long long>(threads),
       ues_per_second);
  line("  handovers        %llu/%llu successful (%llu soft, %llu hard)",
       static_cast<unsigned long long>(handovers_successful),
       static_cast<unsigned long long>(handovers_total),
       static_cast<unsigned long long>(soft),
       static_cast<unsigned long long>(hard));
  if (handovers_successful > 0) {
    line("  ping-pong        %llu round trips (%.3f per successful handover)",
         static_cast<unsigned long long>(ping_pongs), ping_pong_rate);
  }
  if (interruption_ms.count > 0) {
    line("  interruption     p50 %.1f ms, p95 %.1f ms (%llu handovers)",
         interruption_ms.p50, interruption_ms.p95,
         static_cast<unsigned long long>(interruption_ms.count));
  }
  if (alignment_fraction.count > 0) {
    line("  alignment        mean %.1f%%, p50 %.1f%% across %llu tracked UEs",
         100.0 * alignment_fraction.mean, 100.0 * alignment_fraction.p50,
         static_cast<unsigned long long>(alignment_fraction.count));
  }
  if (rate_enabled) {
    line("  throughput       %.1f Mbps mean across UEs (p50 %.1f, p95 %.1f)",
         mean_throughput_mbps, throughput_mbps.p50, throughput_mbps.p95);
    line("  outage           %llu events, %.1f ms total across UEs",
         static_cast<unsigned long long>(outage_events_total),
         outage_ms_total);
  }
  line("  rach             %llu attempts (%.2f per successful handover)",
       static_cast<unsigned long long>(rach_attempts),
       rach_attempts_per_handover.mean);
  line("  ssb budget       %llu observations",
       static_cast<unsigned long long>(ssb_observations));
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
  return out;
}

}  // namespace st::obs
