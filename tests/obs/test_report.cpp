// RunReport: histogram digests, JSON serialisation shape and string
// round trips, and the one-screen summary used by the example binaries.
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"

namespace {

using namespace st;

obs::RunReport make_report() {
  obs::RunReport report;
  report.scenario = "walk";
  report.protocol = "tracker";
  report.seed = 7;
  report.duration_ms = 30000.0;
  report.ue_beamwidth_deg = 20.0;
  report.n_cells = 2;
  report.handover.total = 1;
  report.handover.successful = 1;
  report.handover.soft = 1;
  report.handover.first_interruption_ms = 0.0;
  report.handover.rx_beam_switches = 12;
  report.handover.alignment_fraction = 0.9;
  report.rate_enabled = true;
  report.rate.samples = 3000;
  report.rate.served_samples = 2000;
  report.rate.bits = 7.5e9;  // 250 Mbps over 30 s
  report.rate.sum_sinr_db = 25000.0;
  report.rate.sum_cqi = 22000;
  report.rate.duration_ms = 30000.0;
  report.rate.outage_events = 2;
  report.rate.outage_ms = 300.0;
  report.rate.longest_outage_ms = 200.0;
  report.engine.events_executed = 5000;
  report.engine.queue_depth_hwm = 16;
  report.engine.wall_seconds = 1.5;
  report.engine.sim_seconds = 30.0;
  report.snapshot_cache.hits = 60;
  report.snapshot_cache.refreshes = 30;
  report.snapshot_cache.certified_misses = 5;
  report.snapshot_cache.cold_misses = 8;
  report.snapshot_cache.invalidations = 2;
  report.snapshot_cache.pair_sweeps = 4;
  report.snapshot_cache.rx_sweeps = 9;
  report.snapshot_cache.full_builds = 10;
  report.snapshot_cache.incremental_builds = 30;
  report.snapshot_cache.geometry_reuses = 12;
  report.counters[obs::ProtocolCounter::kServingRxSwitches] = 8;
  report.counters[obs::ProtocolCounter::kBsSwitches] = 3;

  LogLinearHistogram h;
  h.add(10.0);
  h.add(20.0);
  h.add(400.0);
  report.latencies["tracking_loop_ms"] = obs::HistogramSummary::from(h);
  report.trace_events = 123;
  return report;
}

TEST(HistogramSummary, DigestsCountMeanAndQuantiles) {
  LogLinearHistogram h;
  const obs::HistogramSummary empty = obs::HistogramSummary::from(h);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);

  for (int i = 1; i <= 100; ++i) {
    h.add(static_cast<double>(i));
  }
  const obs::HistogramSummary s = obs::HistogramSummary::from(h);
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_GT(s.p95, s.p50);
  EXPECT_GE(s.p99, s.p95);
  EXPECT_NEAR(s.max, 100.0, 1e-9);
  // Quantiles are bin midpoints, accurate to the log-linear resolution.
  EXPECT_NEAR(s.p50, 50.0, 50.0 * 0.05);
  EXPECT_NEAR(s.p95, 95.0, 95.0 * 0.05);
}

TEST(RunReport, JsonCarriesSchemaAndSections) {
  const std::string json = make_report().to_json();
  EXPECT_NE(json.find("\"schema\":\"silent-tracker/run-report/v1\""),
            std::string::npos);
  for (const char* section :
       {"\"scenario\"", "\"handover\"", "\"engine\"", "\"snapshot_cache\"",
        "\"counters\"", "\"latencies\"", "\"trace\""}) {
    EXPECT_NE(json.find(section), std::string::npos) << section;
  }
  // The engine and snapshot_cache blocks carry what gauges once repeated.
  EXPECT_EQ(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"tracking_loop_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_rate\":0.9"), std::string::npos);
  EXPECT_NE(json.find("\"serving_rx_switches\":8"), std::string::npos);
  // Compact document: starts with a brace, its only newline ends it.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.find('\n'), json.size() - 1);
}

TEST(RunReport, StringFieldsRoundTripThroughParse) {
  obs::RunReport report = make_report();
  report.scenario = std::string("quote\" backslash\\ newline\n ctrl\x01 end");
  const json::Value doc = json::parse(report.to_json());
  EXPECT_EQ(doc.find("scenario")->find("mobility")->as_string(),
            report.scenario);
}

/// The `"key":{...}` block of a compact report, from its key to its
/// closing brace (the blocks checked here hold no nested object); empty
/// when the key is absent.
std::string json_block(const std::string& json, const std::string& key) {
  const std::size_t begin = json.find("\"" + key + "\":{");
  if (begin == std::string::npos) {
    return {};
  }
  return json.substr(begin, json.find('}', begin) + 1 - begin);
}

TEST(RunReport, JsonRendersStatisticBlocksExactly) {
  const std::string json = make_report().to_json();
  EXPECT_EQ(json_block(json, "engine"),
            "\"engine\":{"
            "\"events_executed\":5000,"
            "\"queue_depth_hwm\":16,"
            "\"wall_seconds\":1.5,"
            "\"sim_seconds\":30,"
            "\"wall_per_sim_second\":0.05}");
  EXPECT_EQ(json_block(json, "snapshot_cache"),
            "\"snapshot_cache\":{"
            "\"hits\":60,"
            "\"refreshes\":30,"
            "\"certified_misses\":5,"
            "\"cold_misses\":8,"
            "\"invalidations\":2,"
            "\"pair_sweeps\":4,"
            "\"rx_sweeps\":9,"
            "\"full_builds\":10,"
            "\"incremental_builds\":30,"
            "\"geometry_reuses\":12,"
            "\"shadow_reuses\":0,"
            "\"blockage_reuses\":0,"
            "\"azimuth_reuses\":0,"
            "\"hit_rate\":0.9}");
  EXPECT_EQ(json_block(json, "counters"),
            "\"counters\":{"
            "\"bs_switches\":3,"
            "\"serving_rx_switches\":8}");
  EXPECT_EQ(json_block(json, "throughput"),
            "\"throughput\":{"
            "\"samples\":3000,"
            "\"served_samples\":2000,"
            "\"mean_mbps\":250,"
            "\"mean_sinr_db\":12.5,"
            "\"mean_cqi\":11}");
  EXPECT_EQ(json_block(json, "outage"),
            "\"outage\":{"
            "\"events\":2,"
            "\"total_ms\":300,"
            "\"longest_ms\":200,"
            "\"fraction\":0.01}");
}

TEST(RunReport, JsonBalancesBracesAndQuotes) {
  const std::string json = make_report().to_json();
  int depth = 0;
  std::size_t quotes = 0;
  bool in_string = false;
  for (const char c : json) {
    if (c == '"') {
      in_string = !in_string;
      ++quotes;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0u);
  EXPECT_FALSE(in_string);
}

TEST(RunReport, SummaryTextFitsOneScreenAndNamesTheHeadlines) {
  const std::string text = make_report().summary_text();
  EXPECT_NE(text.find("run report"), std::string::npos);
  EXPECT_NE(text.find("handover"), std::string::npos);
  EXPECT_NE(text.find("snapshot cache"), std::string::npos);
  EXPECT_NE(text.find("tracking loop"), std::string::npos);
  // One screen: a couple of dozen lines at most.
  std::size_t lines = 0;
  for (const char c : text) {
    lines += c == '\n' ? 1u : 0u;
  }
  EXPECT_LE(lines, 24u);
  EXPECT_GE(lines, 5u);
}

}  // namespace
