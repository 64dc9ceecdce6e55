#include "obs/trace.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace st::obs {

std::string_view to_string(Component c) noexcept {
  switch (c) {
    case Component::kSilentTracker:
      return "silent_tracker";
    case Component::kBeamSurfer:
      return "beamsurfer";
    case Component::kReactive:
      return "reactive";
    case Component::kCellSearch:
      return "cell_search";
    case Component::kRach:
      return "rach";
    case Component::kLinkMonitor:
      return "link_monitor";
    case Component::kScenario:
      return "scenario";
    case Component::kEngine:
      return "engine";
    case Component::kServe:
      return "serve";
  }
  return "?";
}

std::string_view to_string(TraceEventType type) noexcept {
  switch (type) {
    case TraceEventType::kStateTransition:
      return "state_transition";
    case TraceEventType::kCellFound:
      return "cell_found";
    case TraceEventType::kRxBeamSwitch:
      return "rx_beam_switch";
    case TraceEventType::kTxBeamSwitch:
      return "tx_beam_switch";
    case TraceEventType::kRssDrop:
      return "rss_drop";
    case TraceEventType::kRssSample:
      return "rss_sample";
    case TraceEventType::kRecoverySweep:
      return "recovery_sweep";
    case TraceEventType::kNeighbourAbandoned:
      return "neighbour_abandoned";
    case TraceEventType::kServingLost:
      return "serving_lost";
    case TraceEventType::kServingUnreachable:
      return "serving_unreachable";
    case TraceEventType::kSearchStart:
      return "search_start";
    case TraceEventType::kSearchDwell:
      return "search_dwell";
    case TraceEventType::kSearchOutcome:
      return "search_outcome";
    case TraceEventType::kRachStart:
      return "rach_start";
    case TraceEventType::kRachAttempt:
      return "rach_attempt";
    case TraceEventType::kRachOutcome:
      return "rach_outcome";
    case TraceEventType::kLinkBelowThreshold:
      return "link_below_threshold";
    case TraceEventType::kRadioLinkFailure:
      return "radio_link_failure";
    case TraceEventType::kHandoverComplete:
      return "handover_complete";
  }
  return "?";
}

std::optional<std::string> legacy_message(Component component,
                                          const TraceEvent& event) {
  // Every string built here must be byte-identical to the one the
  // pre-trace call site logged: examples print them as the run's
  // narrative and determinism tests fingerprint them. Doubles go through
  // log_message (ostringstream default formatting) exactly as the
  // originals did.
  switch (event.type) {
    case TraceEventType::kStateTransition:
      if (event.label == "Accessing" && event.cell >= 0) {
        return log_message("STATE Accessing cell=", event.cell,
                           " tx=", event.beam_a, " rx=", event.beam_b);
      }
      return log_message("STATE ", event.label);

    case TraceEventType::kCellFound:
      return log_message("FOUND cell=", event.cell, " tx=", event.beam_a,
                         " rx=", event.beam_b, " rss=", event.value,
                         " latency_ms=", event.value2);

    case TraceEventType::kRxBeamSwitch:
      if (component == Component::kBeamSurfer) {
        return log_message("RX_SWITCH beam ", event.beam_a, " -> ",
                           event.beam_b, " rss=", event.value);
      }
      return log_message("NEIGHBOUR_RX_SWITCH ", event.beam_a, " -> ",
                         event.beam_b, " rss=", event.value);

    case TraceEventType::kTxBeamSwitch:
      if (component == Component::kBeamSurfer) {
        return log_message("TX_SWITCH serving tx -> ", event.beam_b);
      }
      return log_message("TX_RETARGET ", event.beam_a, " -> ", event.beam_b);

    case TraceEventType::kRssDrop:
      if (component == Component::kBeamSurfer) {
        return log_message("DROP serving rss=", event.value,
                           " ref=", event.value2);
      }
      return log_message("NEIGHBOUR_DROP rss=", event.value,
                         " ref=", event.value2);

    case TraceEventType::kRecoverySweep:
      return std::string("NEIGHBOUR_RECOVERY_SWEEP");

    case TraceEventType::kNeighbourAbandoned:
      return log_message("NEIGHBOUR_ABANDONED cell=", event.cell,
                         " quiet_ms=", event.value);

    case TraceEventType::kServingLost:
      if (event.label.empty()) {
        return std::string("SERVING_LOST");
      }
      return log_message("SERVING_LOST reason=", event.label);

    case TraceEventType::kServingUnreachable:
      return std::string("SERVING_UNREACHABLE");

    case TraceEventType::kRachOutcome:
      // Only SilentTracker narrated RACH, and only its failure.
      if (component == Component::kSilentTracker && !event.flag) {
        return std::string("RACH_FAILED");
      }
      return std::nullopt;

    case TraceEventType::kHandoverComplete:
      if (component == Component::kReactive) {
        return log_message(event.flag ? "HO_COMPLETE" : "HO_FAILED",
                           " interruption_ms=", event.value);
      }
      return log_message(event.flag ? "HO_COMPLETE" : "HO_FAILED",
                         " cell=", event.cell, " rx=", event.beam_b,
                         " interruption_ms=", event.value);

    // Trace-only types: these subsystems never logged strings, so adding
    // typed events for them must not change the narrative.
    case TraceEventType::kRssSample:
    case TraceEventType::kSearchStart:
    case TraceEventType::kSearchDwell:
    case TraceEventType::kSearchOutcome:
    case TraceEventType::kRachStart:
    case TraceEventType::kRachAttempt:
    case TraceEventType::kLinkBelowThreshold:
    case TraceEventType::kRadioLinkFailure:
      return std::nullopt;
  }
  return std::nullopt;
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void TraceBuffer::push(const TraceEvent& event) {
  ++pushed_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

TraceRecorder::TraceRecorder(TraceConfig config)
    : buffers_(kComponentCount, TraceBuffer(config.buffer_capacity)) {}

std::uint64_t TraceRecorder::total_events() const noexcept {
  std::uint64_t n = 0;
  for (const TraceBuffer& b : buffers_) {
    n += b.pushed();
  }
  return n;
}

std::uint64_t TraceRecorder::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const TraceBuffer& b : buffers_) {
    n += b.dropped();
  }
  return n;
}

Narrative render_narrative(const TraceRecorder& recorder) {
  struct Tagged {
    Component component;
    TraceEvent event;
  };
  std::vector<Tagged> all;
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    const Component component = static_cast<Component>(i);
    for (const TraceEvent& e : recorder.buffer(component).snapshot()) {
      all.push_back({component, e});
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    return a.event.seq < b.event.seq;
  });

  Narrative narrative;
  narrative.dropped = recorder.total_dropped();
  for (const Tagged& entry : all) {
    if (auto message = legacy_message(entry.component, entry.event)) {
      narrative.lines.push_back(
          {entry.event.t, entry.component, std::move(*message)});
    }
  }
  return narrative;
}

namespace {

// Indexed by ProtocolCounter; kept in name order (see the enum).
constexpr std::array<std::string_view, kProtocolCounterCount> kCounterNames = {
    "bs_switch_requests",
    "bs_switches",
    "fallback_searches",
    "handover_complete",
    "handover_failed",
    "initial_search_hits",
    "initial_search_misses",
    "link_checks_certified",
    "link_checks_evaluated",
    "neighbour_abandoned",
    "neighbour_crossovers",
    "neighbour_drop_events",
    "neighbour_recovery_sweeps",
    "neighbour_rx_switches",
    "neighbour_slots_preempted",
    "neighbour_tx_retargets",
    "policy_no_eligible_candidate",
    "policy_selection_diverted",
    "probe_refine_rounds",
    "rach_failures",
    "reactive_search_rounds",
    "rival_slots_preempted",
    "serving_drop_events",
    "serving_lost",
    "serving_rx_switches",
    "serving_unreachable",
};
static_assert(static_cast<std::size_t>(ProtocolCounter::kServingUnreachable) +
                  1 ==
              kProtocolCounterCount);

}  // namespace

std::string_view to_string(ProtocolCounter counter) noexcept {
  return kCounterNames[static_cast<std::size_t>(counter)];
}

std::vector<std::pair<std::string_view, std::uint64_t>>
ProtocolCounters::nonzero() const {
  std::vector<std::pair<std::string_view, std::uint64_t>> out;
  for (std::size_t i = 0; i < kProtocolCounterCount; ++i) {
    if (values[i] != 0) {
      out.emplace_back(kCounterNames[i], values[i]);
    }
  }
  return out;
}

}  // namespace st::obs
