// The discrete-event simulation engine.
//
// A Simulator owns the clock and the pending-event set. Models (base
// stations, mobiles, channel processes, mobility samplers) schedule
// callbacks; run_until() advances the clock to each event in order. The
// engine is single-threaded by design: mm-wave beam management is a
// control-plane protocol whose fidelity comes from exact event ordering,
// not from parallel packet crunching.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "sim/cancel.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace st::sim {

/// Engine runtime statistics, maintained unconditionally (a handful of
/// integer updates per event) and read by the telemetry layer's RunReport.
struct EngineStats {
  /// Events dispatched so far.
  std::uint64_t events_executed = 0;
  /// High-water mark of the pending-event set — how deep the schedule got.
  std::size_t queue_depth_hwm = 0;
  /// Wall-clock time spent inside run_until()/step() dispatch loops.
  double wall_seconds = 0.0;
  /// Simulated time advanced by run_until() calls.
  double sim_seconds = 0.0;

  /// Wall seconds burned per simulated second (< 1 means faster than
  /// real time); 0 when nothing ran.
  [[nodiscard]] double wall_per_sim_second() const noexcept {
    return sim_seconds > 0.0 ? wall_seconds / sim_seconds : 0.0;
  }

  /// Accumulate another engine's stats (fleet-level aggregation): counts
  /// and wall time add up, the queue high-water mark is the max across
  /// engines, and sim_seconds sums the per-UE clocks (UEs advance their
  /// own simulators, so total simulated work is the sum).
  void merge(const EngineStats& other) noexcept {
    events_executed += other.events_executed;
    queue_depth_hwm = std::max(queue_depth_hwm, other.queue_depth_hwm);
    wall_seconds += other.wall_seconds;
    sim_seconds += other.sim_seconds;
  }
};

class Simulator {
 public:
  Simulator() = default;

  // The event queue holds callbacks that capture `this` of models; a
  // simulator is not meaningfully copyable or movable.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `when`. Scheduling in the past (before
  /// now()) fires the event at now(), preserving causality.
  EventId schedule_at(Time when, EventFn fn);

  /// Schedule `fn` after a delay from now. Negative delays clamp to zero.
  EventId schedule_after(Duration delay, EventFn fn);

  /// Schedule `fn` every `period`, starting at `first`, for the rest of
  /// the simulator's life. The callback receives no arguments; read now()
  /// for the tick time.
  void schedule_periodic(Time first, Duration period, EventFn fn);

  /// Cancel a pending one-shot event.
  bool cancel(EventId id);

  /// Run events until the queue empties or the clock would pass `end`.
  /// The clock is left at `end` (or at the last event if the queue
  /// drained first and you passed Time::max-like sentinel).
  void run_until(Time end);

  /// As above, but polls `cancel` between events and stops early once it
  /// fires (the in-flight callback always completes). Returns true when
  /// the run reached `end`; false when it was cancelled, leaving the
  /// clock at the last dispatched event. A null token — or one that
  /// never fires — makes this bit-identical to run_until(end) in
  /// everything but wall-clock stats.
  bool run_until(Time end, const CancelToken* cancel);

  /// Run a single event if one is pending at or before `end`.
  /// Returns true if an event fired.
  bool step(Time end);

  /// Number of events executed so far (diagnostics / perf tests).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return stats_.events_executed;
  }

  /// Engine statistics so far (event count, queue high-water mark, wall
  /// time spent dispatching).
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// Attach a histogram that receives the wall-clock microseconds of
  /// every dispatched event callback (telemetry profiling). Null (the
  /// default) disables timing entirely — the dispatch loop pays only a
  /// pointer test. The histogram must outlive the simulator's use of it.
  void set_dispatch_histogram(LogLinearHistogram* histogram) noexcept {
    dispatch_us_ = histogram;
  }

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }

 private:
  void note_queue_depth() noexcept {
    stats_.queue_depth_hwm = std::max(stats_.queue_depth_hwm, queue_.size());
  }

  EventQueue queue_;
  Time now_ = Time::zero();
  EngineStats stats_;
  LogLinearHistogram* dispatch_us_ = nullptr;

  // A periodic chain, owned here; its queued occurrence holds a plain
  // pointer to it.
  struct PeriodicChain {
    Duration period;
    EventFn fn;
  };
  void run_periodic(PeriodicChain& chain);

  std::vector<std::unique_ptr<PeriodicChain>> periodic_;
};

}  // namespace st::sim
