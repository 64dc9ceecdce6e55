// Job lifecycle of the scenario service.
//
// A submitted job moves through a checked state machine, mirroring how
// the core protocols guard their Fig. 2b transitions:
//
//   Queued  -> Running      (a worker claimed it)
//   Queued  -> Cancelled    (cancelled while still waiting)
//   Queued  -> Shed         (bounded queue full at admission)
//   Running -> Done         (fleet run finished, report stored)
//   Running -> Cancelled    (cooperative cancellation observed)
//   Running -> Failed       (the run threw)
//
// Done, Cancelled, Failed, and Shed are terminal. Every server-side
// state mutation funnels through the transition check via ST_INVARIANT,
// so a scheduling bug (double-claim, resurrect-after-shed) trips the
// same contract machinery as an illegal protocol edge.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"
#include "core/scenario_spec.hpp"
#include "sim/cancel.hpp"

namespace st::serve {

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kCancelled = 3,
  kFailed = 4,
  kShed = 5,
};
inline constexpr std::size_t kJobStateCount = 6;

[[nodiscard]] std::string_view to_string(JobState s) noexcept;

[[nodiscard]] bool job_transition_allowed(JobState from, JobState to) noexcept;

/// True once a job can never change state again.
[[nodiscard]] bool job_state_terminal(JobState s) noexcept;

/// Throws contracts::ContractViolation on an illegal lifecycle edge.
void check_job_transition(JobState from, JobState to);

/// One entry of a job's event log: a state entered, or (`progress`) a
/// UE of the running job completed. The `events` poll and the telemetry
/// bus both render from it; its `seq` is its index in Job::events.
struct JobEvent {
  std::uint64_t t_ns = 0;  ///< server clock (Server::now_ns)
  JobState state = JobState::kQueued;  ///< entered, or kRunning if progress
  bool progress = false;               ///< a `ue_complete` event
  std::uint64_t ues_completed = 0;     ///< rendered by progress events
};

/// One server-side job record. All mutable fields are guarded by the
/// server's state mutex; the cancellation token is the one lock-free
/// channel into the worker's event loop.
struct Job {
  /// Out-of-line (job.cpp): keeps the ScenarioSpec default construction
  /// in one TU, where GCC 12's -Wmaybe-uninitialized does not misfire
  /// on the initializer-list copy inside make_unique.
  Job();
  ~Job();

  std::uint64_t id = 0;
  /// The decoded spec; the worker that runs the job moves it out.
  core::ScenarioSpec spec;
  JobState state = JobState::kQueued;

  sim::CancelToken cancel;
  /// Set on the first accepted cancel request (double-cancel detection).
  bool cancel_requested = false;

  /// Terminal payloads: exactly one of these is populated.
  std::string report_json;  ///< Done: the FleetReport document
  std::string error;        ///< Failed: what() of the thrown exception

  std::uint64_t ues_total = 0;
  std::uint64_t ues_completed = 0;

  /// Event log, in seq order. Events are appended on every state change
  /// and UE completion and never dropped (a job's event count is bounded
  /// by 3 + fleet size).
  std::vector<JobEvent> events;

  std::chrono::steady_clock::time_point submitted_at{};
  std::chrono::steady_clock::time_point started_at{};
  std::chrono::steady_clock::time_point finished_at{};
};

}  // namespace st::serve
