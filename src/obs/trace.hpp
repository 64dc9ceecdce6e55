// Structured trace layer: typed protocol events in bounded per-component
// ring buffers, with nanosecond sim timestamps, plus the fixed set of
// protocol counters.
//
// A TraceEvent carries the *fields* of a protocol event (type, cell,
// beams, values) rather than a formatted string, so exporters and reports
// consume it directly. The human-readable story of a run — the lines the
// protocols historically narrated ("RX_SWITCH beam 3 -> 4 rss=-71.2") —
// is rendered on demand from the recorded events by render_narrative(),
// through legacy_message(), which reproduces the historical strings byte
// for byte.
//
// Recording is wired through an Emitter per protocol instance: the
// component tag plus two optional, non-owned sinks (a TraceRecorder for
// typed events, a ProtocolCounters array for event counts). With both
// sinks null — the default — emit() and count() are a pointer test each.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace st::obs {

/// Who recorded an event; doubles as the track index in the Perfetto
/// export and the tag of a narrative line.
enum class Component : std::uint8_t {
  kSilentTracker = 0,
  kBeamSurfer,
  kReactive,
  kCellSearch,
  kRach,
  kLinkMonitor,
  kScenario,
  kEngine,
  kServe,  ///< daemon job lifecycle; cell = job id, label = state
};

inline constexpr std::size_t kComponentCount = 9;

/// Legacy-compatible tag: "silent_tracker", "beamsurfer", "reactive", ...
[[nodiscard]] std::string_view to_string(Component c) noexcept;

[[nodiscard]] constexpr std::size_t component_index(Component c) noexcept {
  return static_cast<std::size_t>(c);
}

enum class TraceEventType : std::uint8_t {
  kStateTransition,   ///< label = state name; Accessing carries cell/tx/rx
  kCellFound,         ///< initial search hit: cell, tx, rx, rss, latency_ms
  kRxBeamSwitch,      ///< beam_a -> beam_b, value = winning rss
  kTxBeamSwitch,      ///< retarget/BS switch: beam_a -> beam_b
  kRssDrop,           ///< 3 dB rule fired: value = filtered, value2 = ref
  kRssSample,         ///< per-burst sample: value = rss, beam_a = rx beam
  kRecoverySweep,     ///< full-codebook beam-failure-recovery sweep
  kNeighbourAbandoned,///< value = quiet ms before giving the beam up
  kServingLost,       ///< label = reason ("" for the reactive baseline)
  kServingUnreachable,///< rule (ii) uplink exhausted its attempts
  kSearchStart,       ///< value = candidate cell count
  kSearchDwell,       ///< beam_a = rx beam dwelled on, value = dwell index
  kSearchOutcome,     ///< flag = found; cell/tx/rx/rss, value2 = latency_ms
  kRachStart,         ///< cell, beam_a = target tx beam
  kRachAttempt,       ///< value = attempt number, value2 = ramp dB
  kRachOutcome,       ///< flag = success, value = attempts, value2 = latency_ms
  kLinkBelowThreshold,///< serving SNR fell below data threshold (value = snr)
  kRadioLinkFailure,  ///< RLF declared: cell, value = last snr
  kHandoverComplete,  ///< flag = success; cell, beam_b = rx, value = interruption_ms
};

[[nodiscard]] std::string_view to_string(TraceEventType type) noexcept;

/// One typed event. Fields are a union-of-needs across event types (see
/// the per-type comments above); unused fields keep their defaults.
/// `label` must point at storage outliving the recorder — in practice
/// every label is a string literal (state names, loss reasons).
struct TraceEvent {
  sim::Time t{};
  TraceEventType type = TraceEventType::kStateTransition;
  std::int64_t cell = -1;
  std::int64_t beam_a = -1;
  std::int64_t beam_b = -1;
  double value = 0.0;
  double value2 = 0.0;
  bool flag = false;
  std::string_view label{};
  /// Recording order across all components of one TraceRecorder, stamped
  /// by TraceRecorder::record (callers leave it 0). Equal-time events of
  /// different components keep their causal order through it.
  std::uint64_t seq = 0;
};

/// Render the exact string the pre-trace call site logged for this event,
/// or nullopt for trace-only event types that never had a legacy line.
/// Component matters: the same kRssDrop renders "DROP serving ..." for
/// BeamSurfer but "NEIGHBOUR_DROP ..." for SilentTracker.
[[nodiscard]] std::optional<std::string> legacy_message(Component component,
                                                        const TraceEvent& event);

/// Bounded ring of TraceEvents; when full, the oldest events are dropped
/// (and counted), so a runaway scenario can never grow memory unboundedly.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1 << 16);

  void push(const TraceEvent& event);

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ring_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events pushed in total, including any that have been overwritten.
  [[nodiscard]] std::uint64_t pushed() const noexcept { return pushed_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return pushed_ > ring_.size() ? pushed_ - ring_.size() : 0;
  }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // next overwrite position once the ring is full
  std::uint64_t pushed_ = 0;
};

struct TraceConfig {
  std::size_t buffer_capacity = 1 << 16;  ///< per component
};

/// One buffer per component plus the run's MetricRegistry — everything a
/// single scenario run records, handed as a unit to the exporters.
class TraceRecorder {
 public:
  explicit TraceRecorder(TraceConfig config = {});

  void record(Component component, TraceEvent event) {
    event.seq = next_seq_++;
    buffers_[component_index(component)].push(event);
  }

  [[nodiscard]] const TraceBuffer& buffer(Component component) const noexcept {
    return buffers_[component_index(component)];
  }
  [[nodiscard]] MetricRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricRegistry& metrics() const noexcept {
    return metrics_;
  }

  [[nodiscard]] std::uint64_t total_events() const noexcept;
  [[nodiscard]] std::uint64_t total_dropped() const noexcept;

 private:
  std::vector<TraceBuffer> buffers_;  // indexed by component_index()
  MetricRegistry metrics_;
  std::uint64_t next_seq_ = 0;
};

/// One line of a run's story: the legacy string of a typed event, with
/// the time and component that recorded it.
struct NarrativeLine {
  sim::Time t{};
  Component component = Component::kScenario;
  std::string message;
};

struct Narrative {
  /// Every retained event that has a legacy line, in recording order.
  std::vector<NarrativeLine> lines;
  /// Events the rings overwrote before rendering (TraceRecorder::
  /// total_dropped). Non-zero means the story has gaps: the earliest
  /// events of an overflowed component are missing.
  std::uint64_t dropped = 0;
};

/// Render the run's story from the recorder: legacy_message() of every
/// retained event, merged across components by recording order (not by
/// time then component: at equal timestamps the component that acted
/// first comes first).
[[nodiscard]] Narrative render_narrative(const TraceRecorder& recorder);

/// The protocols' event counters, ordered by name so that iterating the
/// enum reproduces a name-sorted listing.
enum class ProtocolCounter : std::uint8_t {
  kBsSwitchRequests = 0,
  kBsSwitches,
  kFallbackSearches,
  kHandoverComplete,
  kHandoverFailed,
  kInitialSearchHits,
  kInitialSearchMisses,
  kLinkChecksCertified,  ///< monitor ticks a hold certificate covered
  kLinkChecksEvaluated,  ///< monitor ticks that evaluated the SNR
  kNeighbourAbandoned,
  kNeighbourCrossovers,
  kNeighbourDropEvents,
  kNeighbourRecoverySweeps,
  kNeighbourRxSwitches,
  kNeighbourSlotsPreempted,
  kNeighbourTxRetargets,
  kPolicyNoEligibleCandidate,
  kPolicySelectionDiverted,
  kProbeRefineRounds,
  kRachFailures,
  kReactiveSearchRounds,
  kRivalSlotsPreempted,
  kServingDropEvents,
  kServingLost,
  kServingRxSwitches,
  kServingUnreachable,
};

inline constexpr std::size_t kProtocolCounterCount = 26;

/// Report name: "bs_switch_requests", "bs_switches", ...
[[nodiscard]] std::string_view to_string(ProtocolCounter counter) noexcept;

/// One run's protocol counters: a fixed array indexed by ProtocolCounter.
struct ProtocolCounters {
  std::array<std::uint64_t, kProtocolCounterCount> values{};

  [[nodiscard]] std::uint64_t& operator[](ProtocolCounter c) noexcept {
    return values[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t operator[](ProtocolCounter c) const noexcept {
    return values[static_cast<std::size_t>(c)];
  }
  friend bool operator==(const ProtocolCounters&,
                         const ProtocolCounters&) = default;

  /// Accumulate another run's counters (fleet-level aggregation).
  void merge(const ProtocolCounters& other) noexcept {
    for (std::size_t i = 0; i < kProtocolCounterCount; ++i) {
      values[i] += other.values[i];
    }
  }

  /// (name, value) of every counter that fired, in name order.
  [[nodiscard]] std::vector<std::pair<std::string_view, std::uint64_t>>
  nonzero() const;
};

/// Where a protocol instance records. Both sinks optional and non-owned.
struct Sinks {
  TraceRecorder* trace = nullptr;
  ProtocolCounters* counters = nullptr;
};

/// Per-protocol recording point: typed events to the trace, counts to
/// the counter array.
struct Emitter {
  Component component = Component::kScenario;
  Sinks sinks{};

  [[nodiscard]] bool tracing() const noexcept {
    return sinks.trace != nullptr;
  }

  void emit(const TraceEvent& event) const {
    if (sinks.trace != nullptr) {
      sinks.trace->record(component, event);
    }
  }

  void count(ProtocolCounter counter, std::uint64_t by = 1) const noexcept {
    if (sinks.counters != nullptr) {
      (*sinks.counters)[counter] += by;
    }
  }
};

}  // namespace st::obs
