// Trace layer: ring-buffer bounds, the legacy_message compatibility
// contract (byte-identical strings to the pre-trace call sites), the
// narrative rendered from the typed events, the protocol counter names,
// and the Emitter's two sinks.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/time.hpp"

namespace {

using namespace st;
using obs::Component;
using obs::TraceEvent;
using obs::TraceEventType;

sim::Time at_ms(std::int64_t ms) {
  return sim::Time::zero() + sim::Duration::milliseconds(ms);
}

TEST(TraceBuffer, RetainsEverythingBelowCapacity) {
  obs::TraceBuffer buffer(8);
  for (int i = 0; i < 5; ++i) {
    buffer.push({.t = at_ms(i), .value = static_cast<double>(i)});
  }
  EXPECT_EQ(buffer.size(), 5u);
  EXPECT_EQ(buffer.pushed(), 5u);
  EXPECT_EQ(buffer.dropped(), 0u);
  const auto events = buffer.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].t, at_ms(i));
  }
}

TEST(TraceBuffer, DropsOldestWhenFullAndCountsDrops) {
  obs::TraceBuffer buffer(4);
  for (int i = 0; i < 10; ++i) {
    buffer.push({.t = at_ms(i)});
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.pushed(), 10u);
  EXPECT_EQ(buffer.dropped(), 6u);
  // Snapshot holds the newest four, oldest first.
  const auto events = buffer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].t, at_ms(6 + i));
  }
}

TEST(TraceBuffer, ZeroCapacityIsClampedToOne) {
  obs::TraceBuffer buffer(0);
  EXPECT_EQ(buffer.capacity(), 1u);
  buffer.push({.t = at_ms(1)});
  buffer.push({.t = at_ms(2)});
  const auto events = buffer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].t, at_ms(2));
}

TEST(TraceRecorder, RoutesEventsToPerComponentBuffers) {
  obs::TraceRecorder recorder(obs::TraceConfig{16});
  recorder.record(Component::kBeamSurfer, {.t = at_ms(1)});
  recorder.record(Component::kBeamSurfer, {.t = at_ms(2)});
  recorder.record(Component::kRach, {.t = at_ms(3)});
  EXPECT_EQ(recorder.buffer(Component::kBeamSurfer).size(), 2u);
  EXPECT_EQ(recorder.buffer(Component::kRach).size(), 1u);
  EXPECT_EQ(recorder.buffer(Component::kSilentTracker).size(), 0u);
  EXPECT_EQ(recorder.total_events(), 3u);
  EXPECT_EQ(recorder.total_dropped(), 0u);
}

TEST(TraceStrings, ComponentTagsMatchLegacyNarrativeTags) {
  EXPECT_EQ(obs::to_string(Component::kSilentTracker), "silent_tracker");
  EXPECT_EQ(obs::to_string(Component::kBeamSurfer), "beamsurfer");
  EXPECT_EQ(obs::to_string(Component::kReactive), "reactive");
  EXPECT_EQ(obs::to_string(Component::kCellSearch), "cell_search");
  EXPECT_EQ(obs::to_string(Component::kRach), "rach");
  EXPECT_EQ(obs::to_string(Component::kLinkMonitor), "link_monitor");
  EXPECT_EQ(obs::to_string(Component::kScenario), "scenario");
  EXPECT_EQ(obs::to_string(Component::kEngine), "engine");
}

// The legacy strings are load-bearing: examples print them as the run's
// narrative and determinism tests fingerprint them, so legacy_message must
// reproduce the pre-trace call sites byte for byte.
TEST(LegacyMessage, StateTransitionPlainAndAccessing) {
  TraceEvent plain{.type = TraceEventType::kStateTransition,
                   .label = "Tracking"};
  EXPECT_EQ(legacy_message(Component::kSilentTracker, plain),
            "STATE Tracking");

  TraceEvent accessing{.type = TraceEventType::kStateTransition,
                       .cell = 1,
                       .beam_a = 5,
                       .beam_b = 9,
                       .label = "Accessing"};
  EXPECT_EQ(legacy_message(Component::kSilentTracker, accessing),
            "STATE Accessing cell=1 tx=5 rx=9");

  // "Accessing" without a cell renders the plain form.
  TraceEvent no_cell{.type = TraceEventType::kStateTransition,
                     .label = "Accessing"};
  EXPECT_EQ(legacy_message(Component::kSilentTracker, no_cell),
            "STATE Accessing");
}

TEST(LegacyMessage, BeamSwitchesDependOnComponent) {
  TraceEvent rx{.type = TraceEventType::kRxBeamSwitch,
                .beam_a = 3,
                .beam_b = 4,
                .value = -71.25};
  EXPECT_EQ(legacy_message(Component::kBeamSurfer, rx),
            "RX_SWITCH beam 3 -> 4 rss=-71.25");
  EXPECT_EQ(legacy_message(Component::kSilentTracker, rx),
            "NEIGHBOUR_RX_SWITCH 3 -> 4 rss=-71.25");

  TraceEvent tx{.type = TraceEventType::kTxBeamSwitch,
                .beam_a = 2,
                .beam_b = 6};
  EXPECT_EQ(legacy_message(Component::kBeamSurfer, tx),
            "TX_SWITCH serving tx -> 6");
  EXPECT_EQ(legacy_message(Component::kSilentTracker, tx),
            "TX_RETARGET 2 -> 6");
}

TEST(LegacyMessage, DropsAndLossLines) {
  TraceEvent drop{.type = TraceEventType::kRssDrop,
                  .value = -74.5,
                  .value2 = -70.0};
  EXPECT_EQ(legacy_message(Component::kBeamSurfer, drop),
            "DROP serving rss=-74.5 ref=-70");
  EXPECT_EQ(legacy_message(Component::kSilentTracker, drop),
            "NEIGHBOUR_DROP rss=-74.5 ref=-70");

  TraceEvent lost{.type = TraceEventType::kServingLost};
  EXPECT_EQ(legacy_message(Component::kReactive, lost), "SERVING_LOST");
  lost.label = "rlf";
  EXPECT_EQ(legacy_message(Component::kSilentTracker, lost),
            "SERVING_LOST reason=rlf");

  TraceEvent unreachable{.type = TraceEventType::kServingUnreachable};
  EXPECT_EQ(legacy_message(Component::kSilentTracker, unreachable),
            "SERVING_UNREACHABLE");

  TraceEvent abandoned{.type = TraceEventType::kNeighbourAbandoned,
                       .cell = 1,
                       .value = 240.0};
  EXPECT_EQ(legacy_message(Component::kSilentTracker, abandoned),
            "NEIGHBOUR_ABANDONED cell=1 quiet_ms=240");

  TraceEvent sweep{.type = TraceEventType::kRecoverySweep};
  EXPECT_EQ(legacy_message(Component::kSilentTracker, sweep),
            "NEIGHBOUR_RECOVERY_SWEEP");
}

TEST(LegacyMessage, CellFoundAndHandoverComplete) {
  TraceEvent found{.type = TraceEventType::kCellFound,
                   .cell = 1,
                   .beam_a = 2,
                   .beam_b = 3,
                   .value = -70.5,
                   .value2 = 120.0};
  EXPECT_EQ(legacy_message(Component::kSilentTracker, found),
            "FOUND cell=1 tx=2 rx=3 rss=-70.5 latency_ms=120");

  TraceEvent ho{.type = TraceEventType::kHandoverComplete,
                .cell = 1,
                .beam_b = 7,
                .value = 42.5,
                .flag = true};
  EXPECT_EQ(legacy_message(Component::kSilentTracker, ho),
            "HO_COMPLETE cell=1 rx=7 interruption_ms=42.5");
  EXPECT_EQ(legacy_message(Component::kReactive, ho),
            "HO_COMPLETE interruption_ms=42.5");
  ho.flag = false;
  EXPECT_EQ(legacy_message(Component::kReactive, ho),
            "HO_FAILED interruption_ms=42.5");
}

TEST(LegacyMessage, RachOutcomeOnlyNarratedBySilentTrackerFailure) {
  TraceEvent outcome{.type = TraceEventType::kRachOutcome,
                     .cell = 1,
                     .value = 3.0,
                     .flag = false};
  EXPECT_EQ(legacy_message(Component::kSilentTracker, outcome),
            "RACH_FAILED");
  outcome.flag = true;
  EXPECT_EQ(legacy_message(Component::kSilentTracker, outcome),
            std::nullopt);
  EXPECT_EQ(legacy_message(Component::kReactive, outcome), std::nullopt);
}

TEST(LegacyMessage, TraceOnlyTypesHaveNoLegacyLine) {
  for (const TraceEventType type :
       {TraceEventType::kRssSample, TraceEventType::kSearchStart,
        TraceEventType::kSearchDwell, TraceEventType::kSearchOutcome,
        TraceEventType::kRachStart, TraceEventType::kRachAttempt,
        TraceEventType::kLinkBelowThreshold,
        TraceEventType::kRadioLinkFailure}) {
    TraceEvent e{.type = type, .cell = 1, .value = 1.0, .flag = true};
    EXPECT_EQ(legacy_message(Component::kCellSearch, e), std::nullopt)
        << "type " << obs::to_string(type);
    EXPECT_EQ(legacy_message(Component::kSilentTracker, e), std::nullopt)
        << "type " << obs::to_string(type);
  }
}

TEST(Emitter, AllSinksNullIsANoOp) {
  const obs::Emitter emitter{Component::kBeamSurfer};
  EXPECT_FALSE(emitter.tracing());
  emitter.emit({.t = at_ms(1), .type = TraceEventType::kRecoverySweep});
  emitter.count(obs::ProtocolCounter::kBsSwitches);  // must not crash
}

TEST(Emitter, FansOutToRecorderAndLegacyLog) {
  obs::TraceRecorder recorder;
  const obs::Emitter emitter{Component::kBeamSurfer, {.trace = &recorder}};
  EXPECT_TRUE(emitter.tracing());

  emitter.emit({.t = at_ms(5),
                .type = TraceEventType::kRxBeamSwitch,
                .beam_a = 3,
                .beam_b = 4,
                .value = -71.25});

  const auto events = recorder.buffer(Component::kBeamSurfer).snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, TraceEventType::kRxBeamSwitch);
  EXPECT_EQ(events[0].beam_a, 3);
  EXPECT_EQ(events[0].beam_b, 4);

  // The legacy line is rendered from the typed event on demand.
  const obs::Narrative narrative = obs::render_narrative(recorder);
  ASSERT_EQ(narrative.lines.size(), 1u);
  EXPECT_EQ(narrative.lines[0].t, at_ms(5));
  EXPECT_EQ(narrative.lines[0].component, Component::kBeamSurfer);
  EXPECT_EQ(narrative.lines[0].message, "RX_SWITCH beam 3 -> 4 rss=-71.25");
  EXPECT_EQ(narrative.dropped, 0u);
}

TEST(Emitter, TraceOnlyEventHasNoNarrativeLine) {
  obs::TraceRecorder recorder;
  const obs::Emitter emitter{Component::kRach, {.trace = &recorder}};
  emitter.emit({.t = at_ms(1),
                .type = TraceEventType::kRachAttempt,
                .cell = 1,
                .value = 1.0});
  EXPECT_EQ(recorder.buffer(Component::kRach).size(), 1u);
  EXPECT_TRUE(obs::render_narrative(recorder).lines.empty());
}

TEST(Emitter, CountBumpsTheCounterArrayNotTheRegistry) {
  obs::TraceRecorder recorder;
  obs::ProtocolCounters counters;
  const obs::Emitter emitter{Component::kSilentTracker,
                             {.trace = &recorder, .counters = &counters}};
  emitter.count(obs::ProtocolCounter::kRachFailures);
  emitter.count(obs::ProtocolCounter::kRachFailures, 2);
  EXPECT_EQ(counters[obs::ProtocolCounter::kRachFailures], 3u);
  EXPECT_TRUE(recorder.metrics().counters().empty());
  // Every other counter is untouched.
  EXPECT_EQ(counters.nonzero().size(), 1u);
}

TEST(Emitter, CountWithoutRecorderOnlyBumpsLegacyCounter) {
  obs::ProtocolCounters counters;
  const obs::Emitter emitter{Component::kBeamSurfer, {.counters = &counters}};
  emitter.count(obs::ProtocolCounter::kServingRxSwitches);
  EXPECT_EQ(counters[obs::ProtocolCounter::kServingRxSwitches], 1u);
}

// ---- narrative ------------------------------------------------------------

TEST(Narrative, KeepsCrossComponentRecordingOrderAtEqualTimestamps) {
  // The quickstart shape: at one instant BeamSurfer gives up on the
  // serving cell, then SilentTracker reacts. SilentTracker has the lower
  // component index, so a time-then-component merge would invert cause
  // and effect; the narrative follows recording order.
  obs::TraceRecorder recorder;
  recorder.record(Component::kBeamSurfer,
                  {.t = at_ms(6741),
                   .type = TraceEventType::kServingUnreachable});
  recorder.record(Component::kSilentTracker,
                  {.t = at_ms(6741),
                   .type = TraceEventType::kServingLost,
                   .label = "bs_switch_request_undeliverable"});
  recorder.record(Component::kSilentTracker,
                  {.t = at_ms(6741),
                   .type = TraceEventType::kStateTransition,
                   .label = "Accessing"});
  recorder.record(Component::kBeamSurfer,
                  {.t = at_ms(6742),
                   .type = TraceEventType::kTxBeamSwitch,
                   .beam_b = 2});

  const obs::Narrative narrative = obs::render_narrative(recorder);
  ASSERT_EQ(narrative.lines.size(), 4u);
  EXPECT_EQ(narrative.lines[0].component, Component::kBeamSurfer);
  EXPECT_EQ(narrative.lines[0].message, "SERVING_UNREACHABLE");
  EXPECT_EQ(narrative.lines[1].component, Component::kSilentTracker);
  EXPECT_EQ(narrative.lines[1].message,
            "SERVING_LOST reason=bs_switch_request_undeliverable");
  EXPECT_EQ(narrative.lines[2].message, "STATE Accessing");
  EXPECT_EQ(narrative.lines[3].message, "TX_SWITCH serving tx -> 2");
  EXPECT_EQ(narrative.lines[3].t, at_ms(6742));
}

TEST(Narrative, ReportsRingDropsInsteadOfStartingSilentlyMidRun) {
  obs::TraceRecorder recorder(obs::TraceConfig{2});
  for (int i = 0; i < 5; ++i) {
    recorder.record(Component::kSilentTracker,
                    {.t = at_ms(i),
                     .type = TraceEventType::kStateTransition,
                     .label = "Tracking"});
  }
  recorder.record(Component::kBeamSurfer,
                  {.t = at_ms(5), .type = TraceEventType::kServingUnreachable});

  const obs::Narrative narrative = obs::render_narrative(recorder);
  EXPECT_EQ(narrative.dropped, 3u);
  // What survives is the tail of the overflowed ring, still in order.
  ASSERT_EQ(narrative.lines.size(), 3u);
  EXPECT_EQ(narrative.lines[0].t, at_ms(3));
  EXPECT_EQ(narrative.lines[1].t, at_ms(4));
  EXPECT_EQ(narrative.lines[2].message, "SERVING_UNREACHABLE");
}

// ---- protocol counters ----------------------------------------------------

TEST(ProtocolCounterNames, UniqueNonEmptyAndInNameOrder) {
  // Name order is what makes iterating the enum reproduce a name-sorted
  // listing (the order quickstart and the RunReport print).
  std::set<std::string> seen;
  std::string previous;
  for (std::size_t i = 0; i < obs::kProtocolCounterCount; ++i) {
    const std::string name(
        obs::to_string(static_cast<obs::ProtocolCounter>(i)));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
    EXPECT_LT(previous, name);
    previous = name;
  }
  EXPECT_EQ(obs::to_string(obs::ProtocolCounter::kBsSwitchRequests),
            "bs_switch_requests");
  EXPECT_EQ(obs::to_string(obs::ProtocolCounter::kServingUnreachable),
            "serving_unreachable");
}

TEST(ProtocolCounterNames, NonzeroListsEveryFiredCounterByName) {
  obs::ProtocolCounters counters;
  for (std::size_t i = 0; i < obs::kProtocolCounterCount; ++i) {
    counters.values[i] = i + 1;
  }
  const auto fired = counters.nonzero();
  ASSERT_EQ(fired.size(), obs::kProtocolCounterCount);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].first,
              obs::to_string(static_cast<obs::ProtocolCounter>(i)));
    EXPECT_EQ(fired[i].second, i + 1);
  }
  EXPECT_TRUE(obs::ProtocolCounters{}.nonzero().empty());
}

}  // namespace
