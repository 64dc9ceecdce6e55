// The scenario service: a Unix-domain-socket daemon that runs fleet
// scenarios on behalf of clients.
//
// Architecture (one process, four thread roles):
//
//   accept thread ── one connection thread per client ──┐
//                                                       │ try_push
//                                          bounded JobQueue (sheds)
//                                                       │ pop
//                              worker pool ── fleet::run_fleet per job
//
// Connection threads only parse, validate, and enqueue — every
// expensive operation happens on a worker. All job records, the
// metric registry, and lifecycle transitions are guarded by one
// server-wide mutex (requests are control-plane traffic; contention
// is negligible next to a fleet run). The per-job sim::CancelToken is
// the single lock-free channel into a running worker.
//
// `handle()` is the transport-free request dispatcher: tests exercise
// the full request surface against it without a socket, and the socket
// path adds nothing but framing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "serve/job.hpp"
#include "serve/job_queue.hpp"
#include "serve/protocol.hpp"

namespace st::serve {

struct ServerConfig {
  /// Filesystem path of the AF_UNIX listening socket. A stale file at
  /// the path is unlinked on start.
  std::string socket_path;
  /// Jobs admitted but not yet claimed by a worker; submissions beyond
  /// this are shed with a typed response.
  std::size_t queue_capacity = 16;
  /// Concurrent fleet runs.
  std::size_t workers = 2;
  /// Threads per fleet run (0 = hardware concurrency). Pin this when a
  /// client compares a served report against a direct run_fleet call.
  unsigned fleet_threads = 0;
  /// Request frames above this are rejected before allocation.
  std::uint32_t max_request_frame = kMaxRequestFrameBytes;
  /// Default per-subscriber telemetry queue capacity (frames). A
  /// subscriber that lags beyond it loses the oldest frames, with the
  /// loss reported in-band (`dropped`). Overridable per subscription via
  /// the request's "queue" field, clamped to [1, 65536].
  std::size_t telemetry_queue = 256;
};

/// Validated parameters of a `subscribe` request.
struct SubscribeParams {
  obs::TelemetryFilter filter;
  /// Period of the pushed stats snapshots; 0 disables them even when the
  /// filter asks for stats.
  std::uint32_t snapshot_period_ms = 1000;
  /// When true (default) a stats frame carries only counters/gauges/
  /// histograms that changed since the previous frame (the first frame
  /// is always complete).
  bool delta = true;
  std::size_t queue_capacity = 0;  ///< 0 = ServerConfig::telemetry_queue
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and spawn the accept thread and worker pool.
  /// Throws std::runtime_error when the socket cannot be created.
  void start();

  /// Hard stop: cancel running jobs, close the queue, tear down all
  /// threads, unlink the socket. Idempotent; also run by ~Server().
  void stop();

  /// Begin graceful drain: new submissions are rejected with a
  /// `draining` error, queued and running jobs are finished normally.
  void request_drain();

  /// True once a requested drain has fully completed (queue empty and
  /// no job running).
  [[nodiscard]] bool drained() ST_EXCLUDES(state_mutex_);

  /// Dispatch one parsed request to a response — the entire protocol
  /// minus framing. Never throws: internal errors become typed
  /// `internal` error responses.
  [[nodiscard]] json::Value handle(const json::Value& request);

  /// Validate a `subscribe` request: the ok/error ack (what handle()
  /// returns for it) plus, on success, the decoded parameters. The
  /// socket path switches the connection into a push stream after
  /// writing an ok ack; handle() alone never streams, which is what
  /// keeps it transport-free for tests.
  [[nodiscard]] json::Value handle_subscribe(const json::Value& request,
                                             SubscribeParams* out);

  /// The bus every job lifecycle / progress frame is published on.
  /// Exposed so tests and benches can subscribe in-process.
  [[nodiscard]] obs::TelemetryBus& telemetry() noexcept { return bus_; }

  /// The job timeline, rendered from the job table: one Component::kServe
  /// kStateTransition per state a job entered (cell = job id, label =
  /// state), in time order. `stserved --trace-out` exports it on exit.
  [[nodiscard]] obs::TraceRecorder job_trace() const ST_EXCLUDES(state_mutex_);

  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }

 private:
  // -- request handlers (state_mutex_ NOT held on entry — enforced) ---
  [[nodiscard]] json::Value handle_submit(const json::Value& request)
      ST_EXCLUDES(state_mutex_);
  [[nodiscard]] json::Value handle_status(const json::Value& request)
      ST_EXCLUDES(state_mutex_);
  [[nodiscard]] json::Value handle_events(const json::Value& request)
      ST_EXCLUDES(state_mutex_);
  [[nodiscard]] json::Value handle_result(const json::Value& request)
      ST_EXCLUDES(state_mutex_);
  [[nodiscard]] json::Value handle_cancel(const json::Value& request)
      ST_EXCLUDES(state_mutex_);
  [[nodiscard]] json::Value handle_stats() ST_EXCLUDES(state_mutex_);

  /// Lifecycle transition with event log + per-state counters; the
  /// caller holds state_mutex_ (a compile error otherwise under clang).
  /// Trips the contract checker (and throws) on an illegal edge.
  void transition_locked(Job& job, JobState to) ST_REQUIRES(state_mutex_);
  /// Append one event to the job's log and publish it on the bus.
  void append_event_locked(Job& job, bool progress)
      ST_REQUIRES(state_mutex_);

  [[nodiscard]] Job* find_job_locked(std::uint64_t id)
      ST_REQUIRES(state_mutex_);

  /// Nanoseconds since server construction — the t_ns clock of every
  /// telemetry frame and trace event.
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// The `data` payload of one pushed stats frame; takes state_mutex_
  /// internally. `prev` carries the delta baseline between frames.
  struct StatsDeltaState;
  [[nodiscard]] json::Value build_stats_frame(StatsDeltaState& prev,
                                              bool delta)
      ST_EXCLUDES(state_mutex_);

  // -- thread bodies --------------------------------------------------
  void accept_loop();
  void connection_loop(int fd);
  /// Server-push half of a subscribed connection: owns the fd (and the
  /// already-registered bus subscription `sub` — created before the ack
  /// was written, so no frame can fall in the ack/attach gap) until the
  /// client disconnects or the server stops.
  void stream_loop(int fd, const SubscribeParams& params,
                   obs::TelemetryBus::SubscriberId sub);
  void worker_loop();
  void run_job(std::uint64_t id);

  ServerConfig config_;
  JobQueue queue_;  // internally synchronized

  // The server-wide control-plane lock: every job record, the metric
  // registry, and each lifecycle transition mutate under it.
  mutable Mutex state_mutex_;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_
      ST_GUARDED_BY(state_mutex_);
  std::uint64_t next_job_id_ ST_GUARDED_BY(state_mutex_) = 1;
  obs::MetricRegistry metrics_ ST_GUARDED_BY(state_mutex_);
  std::size_t jobs_running_ ST_GUARDED_BY(state_mutex_) = 0;
  bool draining_ ST_GUARDED_BY(state_mutex_) = false;

  obs::TelemetryBus bus_;  // internally synchronized
  const std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();

  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  Mutex conn_mutex_;
  std::vector<std::thread> connections_ ST_GUARDED_BY(conn_mutex_);
  bool started_ = false;
};

}  // namespace st::serve
