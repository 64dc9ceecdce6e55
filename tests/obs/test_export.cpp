// Exporters: the Chrome/Perfetto trace must be structurally sound
// (balanced B/E slices, metadata tracks, instant events with args) and
// parse back with its labels unchanged.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace {

using namespace st;
using obs::Component;
using obs::TraceEvent;
using obs::TraceEventType;

sim::Time at_ms(std::int64_t ms) {
  return sim::Time::zero() + sim::Duration::milliseconds(ms);
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

obs::TraceRecorder make_recorder() {
  obs::TraceRecorder recorder;
  recorder.record(Component::kSilentTracker,
                  {.t = at_ms(0),
                   .type = TraceEventType::kStateTransition,
                   .label = "Searching"});
  recorder.record(Component::kSilentTracker,
                  {.t = at_ms(100),
                   .type = TraceEventType::kStateTransition,
                   .cell = 1,
                   .beam_a = 5,
                   .beam_b = 9,
                   .label = "Accessing"});
  recorder.record(Component::kSilentTracker,
                  {.t = at_ms(50),
                   .type = TraceEventType::kRssSample,
                   .cell = 1,
                   .beam_a = 9,
                   .value = -72.5});
  recorder.record(Component::kBeamSurfer,
                  {.t = at_ms(20),
                   .type = TraceEventType::kRxBeamSwitch,
                   .beam_a = 3,
                   .beam_b = 4,
                   .value = -71.0});
  return recorder;
}

TEST(ChromeTrace, EmptyRecorderStillProducesAValidEnvelope) {
  obs::TraceRecorder recorder;
  std::ostringstream os;
  ASSERT_TRUE(obs::write_chrome_trace(recorder, os));
  const std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(out.find("\"process_name\""), std::string::npos);
}

TEST(ChromeTrace, SlicesAreBalancedAndTracksNamed) {
  const obs::TraceRecorder recorder = make_recorder();
  std::ostringstream os;
  ASSERT_TRUE(obs::write_chrome_trace(recorder, os));
  const std::string out = os.str();

  // Two state transitions open two B slices; the first is closed by the
  // second, the last at trace end — so B and E counts match.
  EXPECT_EQ(count_of(out, "\"ph\":\"B\""), 2u);
  EXPECT_EQ(count_of(out, "\"ph\":\"E\""), 2u);
  EXPECT_NE(out.find("\"name\":\"Searching\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"Accessing\""), std::string::npos);

  // The RSS sample becomes a per-cell counter track.
  EXPECT_NE(out.find("\"name\":\"silent_tracker rss_dbm cell=1\""),
            std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);

  // The beam switch is an instant with its fields in args.
  EXPECT_NE(out.find("\"name\":\"rx_beam_switch\""), std::string::npos);
  EXPECT_NE(out.find("\"beam_a\":3"), std::string::npos);
  EXPECT_NE(out.find("\"beam_b\":4"), std::string::npos);

  // One thread_name metadata record per non-empty component.
  EXPECT_EQ(count_of(out, "\"name\":\"thread_name\""), 2u);
  EXPECT_NE(out.find("\"args\":{\"name\":\"silent_tracker\"}"),
            std::string::npos);
  EXPECT_NE(out.find("\"args\":{\"name\":\"beamsurfer\"}"),
            std::string::npos);
}

TEST(ChromeTrace, LabelsRoundTripThroughParse) {
  constexpr std::string_view kLabel =
      "quote\" backslash\\ newline\n ctrl\x01 end";
  obs::TraceRecorder recorder;
  recorder.record(Component::kBeamSurfer,
                  {.t = at_ms(5),
                   .type = TraceEventType::kRxBeamSwitch,
                   .value = -70.25,
                   .label = kLabel});
  std::ostringstream os;
  ASSERT_TRUE(obs::write_chrome_trace(recorder, os));
  const json::Value doc = json::parse(os.str());
  const json::Value& event = doc.find("traceEvents")->items().back();
  EXPECT_EQ(event.find("name")->as_string(), "rx_beam_switch");
  EXPECT_EQ(event.find("ts")->as_double(), 5000.0);
  EXPECT_EQ(event.find("args")->find("value")->as_double(), -70.25);
  EXPECT_EQ(event.find("args")->find("label")->as_string(), kLabel);
}

TEST(WriteTextFile, RoundTripsAndFailsOnBadPath) {
  const std::string path =
      testing::TempDir() + "/st_obs_write_text_file_test.json";
  ASSERT_TRUE(obs::write_text_file(path, "{\"ok\": true}\n"));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "{\"ok\": true}\n");

  EXPECT_FALSE(
      obs::write_text_file("/nonexistent-dir/sub/file.json", "x"));
}

}  // namespace
