#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "core/spec_json.hpp"
#include "fleet/engine.hpp"
#include "obs/report.hpp"

namespace st::serve {

namespace {

[[nodiscard]] double ms_between(std::chrono::steady_clock::time_point a,
                                std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// strerror(errno) without the static-buffer thread hazard (the accept
/// and connection threads can fail concurrently).
[[nodiscard]] std::string errno_message(int err) {
  return std::generic_category().message(err);
}

/// Extract a required u64 field, or report why not.
[[nodiscard]] bool get_u64(const json::Value& request, std::string_view key,
                           std::uint64_t& out, std::string& why) {
  const json::Value* v = request.find(key);
  if (v == nullptr) {
    why = std::string("missing required field \"") + std::string(key) + "\"";
    return false;
  }
  try {
    out = v->as_u64();
  } catch (const json::ParseError& e) {
    why = std::string("field \"") + std::string(key) + "\": " + e.what();
    return false;
  }
  return true;
}

/// The `events` poll's rendering of a job's event `seq`; the bus payload
/// is this object plus "id" and "state".
[[nodiscard]] json::Value event_json(const Job& job, std::uint64_t seq) {
  const JobEvent& e = job.events[seq];
  json::Value v = json::Value::object();
  v.set("seq", seq);
  v.set("event", e.progress ? "ue_complete" : to_string(e.state));
  if (e.progress) {
    v.set("ues_completed", e.ues_completed);
    v.set("ues_total", job.ues_total);
  }
  return v;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)), queue_(config_.queue_capacity) {}

Server::~Server() { stop(); }

void Server::start() {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("serve: socket() failed: " +
                             errno_message(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: socket path too long: " +
                             config_.socket_path);
  }
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);
  ::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string what = errno_message(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on " + config_.socket_path +
                             ": " + what);
  }
  stop_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  started_ = true;
}

void Server::stop() {
  if (!started_) {
    return;
  }
  started_ = false;
  stop_.store(true, std::memory_order_release);
  // Wake subscribe streams blocked on their telemetry queues so the
  // connection joins below cannot wait out a full pop timeout.
  bus_.close();
  {
    const MutexLock lock(state_mutex_);
    for (auto& [id, job] : jobs_) {
      if (!job_state_terminal(job->state)) {
        job->cancel.cancel();
      }
    }
  }
  queue_.close();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
  workers_.clear();
  {
    const MutexLock lock(conn_mutex_);
    for (std::thread& c : connections_) {
      if (c.joinable()) {
        c.join();
      }
    }
    connections_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(config_.socket_path.c_str());
}

void Server::request_drain() {
  {
    const MutexLock lock(state_mutex_);
    draining_ = true;
  }
  queue_.close();
}

bool Server::drained() {
  const MutexLock lock(state_mutex_);
  if (!draining_) {
    return false;
  }
  for (const auto& [id, job] : jobs_) {
    if (!job_state_terminal(job->state)) {
      return false;
    }
  }
  return true;
}

json::Value Server::handle(const json::Value& request) {
  try {
    if (request.kind() != json::Value::Kind::kObject) {
      return error_response(errc::kBadRequest, "request must be an object");
    }
    const json::Value* type = request.find("type");
    if (type == nullptr || type->kind() != json::Value::Kind::kString) {
      return error_response(errc::kBadRequest,
                            "request needs a string \"type\" field");
    }
    const std::string& t = type->as_string();
    if (t == "submit") {
      return handle_submit(request);
    }
    if (t == "status") {
      return handle_status(request);
    }
    if (t == "events") {
      return handle_events(request);
    }
    if (t == "result") {
      return handle_result(request);
    }
    if (t == "cancel") {
      return handle_cancel(request);
    }
    if (t == "stats") {
      return handle_stats();
    }
    if (t == "subscribe") {
      return handle_subscribe(request, nullptr);
    }
    if (t == "drain") {
      request_drain();
      json::Value v = ok_response();
      v.set("draining", json::Value::boolean(true));
      return v;
    }
    if (t == "ping") {
      json::Value v = ok_response();
      v.set("pong", json::Value::boolean(true));
      return v;
    }
    return error_response(errc::kUnknownType,
                          "unknown request type \"" + t + "\"");
  } catch (const std::exception& e) {
    return error_response(errc::kInternal, e.what());
  } catch (...) {
    return error_response(errc::kInternal, "unknown internal error");
  }
}

json::Value Server::handle_submit(const json::Value& request) {
  const json::Value* job_doc = request.find("job");
  if (job_doc == nullptr || job_doc->kind() != json::Value::Kind::kObject) {
    return error_response(errc::kBadRequest,
                          "submit needs a \"job\" object");
  }
  core::ScenarioSpec spec;
  try {
    spec = core::spec_from_job_json(*job_doc);
  } catch (const std::exception& e) {
    return error_response(errc::kBadRequest, e.what());
  }

  const MutexLock lock(state_mutex_);
  if (draining_) {
    return error_response(errc::kDraining,
                          "server is draining; not accepting jobs");
  }
  const std::uint64_t id = next_job_id_++;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->ues_total = spec.ues.size();
  job->spec = std::move(spec);
  job->submitted_at = std::chrono::steady_clock::now();
  Job& record = *job;
  jobs_.emplace(id, std::move(job));
  metrics_.counter("serve.jobs.submitted").increment();
  metrics_.counter("serve.jobs.queued").increment();
  append_event_locked(record, /*progress=*/false);

  if (!queue_.try_push(id)) {
    transition_locked(record, JobState::kShed);
    json::Value v = error_response(
        errc::kShed, "queue full (capacity " +
                         std::to_string(queue_.capacity()) + "); job shed");
    v.set("id", id);
    return v;
  }
  metrics_.gauge("serve.queue_depth").set(static_cast<double>(queue_.depth()));

  json::Value v = ok_response();
  v.set("id", id);
  v.set("state", to_string(record.state));
  v.set("queue_depth", static_cast<std::uint64_t>(queue_.depth()));
  return v;
}

json::Value Server::handle_status(const json::Value& request) {
  std::uint64_t id = 0;
  std::string why;
  if (!get_u64(request, "id", id, why)) {
    return error_response(errc::kBadRequest, why);
  }
  const MutexLock lock(state_mutex_);
  Job* job = find_job_locked(id);
  if (job == nullptr) {
    return error_response(errc::kUnknownJob,
                          "no job with id " + std::to_string(id));
  }
  json::Value v = ok_response();
  v.set("id", id);
  v.set("state", to_string(job->state));
  v.set("ues_total", job->ues_total);
  v.set("ues_completed", job->ues_completed);
  if (job->state == JobState::kFailed) {
    v.set("error", job->error);
  }
  return v;
}

json::Value Server::handle_events(const json::Value& request) {
  std::uint64_t id = 0;
  std::string why;
  if (!get_u64(request, "id", id, why)) {
    return error_response(errc::kBadRequest, why);
  }
  std::uint64_t after = 0;
  if (request.find("after") != nullptr &&
      !get_u64(request, "after", after, why)) {
    return error_response(errc::kBadRequest, why);
  }
  const MutexLock lock(state_mutex_);
  Job* job = find_job_locked(id);
  if (job == nullptr) {
    return error_response(errc::kUnknownJob,
                          "no job with id " + std::to_string(id));
  }
  json::Value events = json::Value::array();
  for (std::uint64_t seq = after; seq < job->events.size(); ++seq) {
    events.push_back(event_json(*job, seq));
  }
  json::Value v = ok_response();
  v.set("id", id);
  v.set("events", std::move(events));
  v.set("next", job->events.size());
  v.set("state", to_string(job->state));
  return v;
}

json::Value Server::handle_result(const json::Value& request) {
  std::uint64_t id = 0;
  std::string why;
  if (!get_u64(request, "id", id, why)) {
    return error_response(errc::kBadRequest, why);
  }
  const MutexLock lock(state_mutex_);
  Job* job = find_job_locked(id);
  if (job == nullptr) {
    return error_response(errc::kUnknownJob,
                          "no job with id " + std::to_string(id));
  }
  switch (job->state) {
    case JobState::kDone: {
      json::Value v = ok_response();
      v.set("id", id);
      // Splice the pre-rendered report document without re-parsing it.
      v.set("report", json::Value::raw(job->report_json));
      return v;
    }
    case JobState::kFailed:
      return error_response(errc::kFailed, job->error);
    case JobState::kCancelled:
      return error_response(errc::kCancelled,
                            "job " + std::to_string(id) + " was cancelled");
    case JobState::kShed:
      return error_response(errc::kShed,
                            "job " + std::to_string(id) + " was shed");
    case JobState::kQueued:
    case JobState::kRunning:
      return error_response(
          errc::kNotDone, "job " + std::to_string(id) + " is still " +
                              std::string(to_string(job->state)));
  }
  return error_response(errc::kInternal, "unreachable job state");
}

json::Value Server::handle_cancel(const json::Value& request) {
  std::uint64_t id = 0;
  std::string why;
  if (!get_u64(request, "id", id, why)) {
    return error_response(errc::kBadRequest, why);
  }
  const MutexLock lock(state_mutex_);
  Job* job = find_job_locked(id);
  if (job == nullptr) {
    return error_response(errc::kUnknownJob,
                          "no job with id " + std::to_string(id));
  }
  if (job->cancel_requested || job->state == JobState::kCancelled) {
    json::Value v = error_response(
        errc::kAlreadyCancelled,
        "job " + std::to_string(id) + " already has a cancel request");
    v.set("state", to_string(job->state));
    return v;
  }
  if (job_state_terminal(job->state)) {
    json::Value v = error_response(
        errc::kAlreadyFinished, "job " + std::to_string(id) + " is already " +
                                    std::string(to_string(job->state)));
    v.set("state", to_string(job->state));
    return v;
  }
  job->cancel_requested = true;
  job->cancel.cancel();
  if (job->state == JobState::kQueued) {
    // Still waiting: settle it here; the worker that later pops the id
    // sees a terminal state and skips it.
    transition_locked(*job, JobState::kCancelled);
    job->finished_at = std::chrono::steady_clock::now();
  }
  json::Value v = ok_response();
  v.set("id", id);
  v.set("state", to_string(job->state));
  return v;
}

json::Value Server::handle_stats() {
  const MutexLock lock(state_mutex_);
  json::Value jobs = json::Value::object();
  for (const char* name :
       {"submitted", "queued", "running", "done", "cancelled", "failed",
        "shed"}) {
    jobs.set(name, metrics_.counter_value(std::string("serve.jobs.") + name));
  }
  json::Value latency = json::Value::object();
  // "serve." and "fleet." are both 6 characters, so the prefix strip
  // below covers the rate-layer distributions too.
  for (const char* name :
       {"serve.queue_wait_ms", "serve.run_ms", "serve.e2e_ms",
        "fleet.throughput_mbps", "fleet.outage_ms"}) {
    if (const LogLinearHistogram* h = metrics_.find_histogram(name)) {
      latency.set(std::string_view(name).substr(6),
                  obs::histogram_json(obs::HistogramSummary::from(*h)));
    }
  }
  json::Value stats = json::Value::object();
  stats.set("queue_depth", static_cast<std::uint64_t>(queue_.depth()));
  stats.set("queue_capacity", static_cast<std::uint64_t>(queue_.capacity()));
  stats.set("workers", static_cast<std::uint64_t>(config_.workers));
  stats.set("jobs_running", static_cast<std::uint64_t>(jobs_running_));
  stats.set("draining", json::Value::boolean(draining_));
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  stats.set("uptime_seconds", uptime);
  const std::uint64_t done = metrics_.counter_value("serve.jobs.done");
  const std::uint64_t submitted =
      metrics_.counter_value("serve.jobs.submitted");
  const std::uint64_t shed = metrics_.counter_value("serve.jobs.shed");
  stats.set("jobs_per_second",
            uptime > 0.0 ? static_cast<double>(done) / uptime : 0.0);
  stats.set("shed_rate", submitted > 0 ? static_cast<double>(shed) /
                                             static_cast<double>(submitted)
                                       : 0.0);
  stats.set("jobs", std::move(jobs));
  stats.set("latency", std::move(latency));
  json::Value telemetry = json::Value::object();
  telemetry.set("subscribers", bus_.subscriber_count());
  telemetry.set("published", bus_.published());
  telemetry.set("dropped", bus_.total_dropped());
  stats.set("telemetry", std::move(telemetry));
  stats.set("provenance",
            obs::provenance_json(obs::ProvenanceReport::current()));
  json::Value v = ok_response();
  v.set("stats", std::move(stats));
  return v;
}

json::Value Server::handle_subscribe(const json::Value& request,
                                     SubscribeParams* out) {
  SubscribeParams params;
  std::string filter_name = "all";
  if (const json::Value* filter = request.find("filter")) {
    if (filter->kind() != json::Value::Kind::kString) {
      return error_response(errc::kBadRequest,
                            "subscribe \"filter\" must be a string");
    }
    filter_name = filter->as_string();
    if (filter_name == "stats") {
      params.filter = {true, false};
    } else if (filter_name == "events") {
      params.filter = {false, true};
    } else if (filter_name == "all") {
      params.filter = {true, true};
    } else {
      return error_response(
          errc::kBadRequest,
          "subscribe \"filter\" must be \"stats\", \"events\", or \"all\"");
    }
  }
  std::string why;
  if (request.find("snapshot_period_ms") != nullptr) {
    std::uint64_t period = 0;
    if (!get_u64(request, "snapshot_period_ms", period, why)) {
      return error_response(errc::kBadRequest, why);
    }
    // 0 = no pushed snapshots; otherwise clamped to a sane cadence.
    params.snapshot_period_ms = static_cast<std::uint32_t>(
        period == 0 ? 0 : std::clamp<std::uint64_t>(period, 10, 60'000));
  }
  if (const json::Value* delta = request.find("delta")) {
    if (delta->kind() != json::Value::Kind::kBool) {
      return error_response(errc::kBadRequest,
                            "subscribe \"delta\" must be a boolean");
    }
    params.delta = delta->as_bool();
  }
  if (request.find("queue") != nullptr) {
    std::uint64_t capacity = 0;
    if (!get_u64(request, "queue", capacity, why)) {
      return error_response(errc::kBadRequest, why);
    }
    params.queue_capacity = static_cast<std::size_t>(
        std::clamp<std::uint64_t>(capacity, 1, 65'536));
  }
  if (params.queue_capacity == 0) {
    params.queue_capacity = config_.telemetry_queue;
  }

  json::Value v = ok_response();
  v.set("subscribed", json::Value::boolean(true));
  v.set("filter", filter_name);
  v.set("snapshot_period_ms",
        json::Value::unsigned_integer(params.snapshot_period_ms));
  v.set("delta", json::Value::boolean(params.delta));
  v.set("queue", params.queue_capacity);
  v.set("frame_version", obs::kTelemetryFrameVersion);
  if (out != nullptr) {
    *out = params;
  }
  return v;
}

void Server::transition_locked(Job& job, JobState to) {
  ST_INVARIANT(check_job_transition(job.state, to));
  if (!job_transition_allowed(job.state, to)) {
    // Defence in depth for non-checker builds: refuse to corrupt the
    // lifecycle even when the contract layer is compiled out.
    throw std::logic_error("serve: illegal job transition " +
                           std::string(to_string(job.state)) + " -> " +
                           std::string(to_string(to)));
  }
  if (to == JobState::kRunning) {
    ++jobs_running_;
  } else if (job.state == JobState::kRunning && jobs_running_ > 0) {
    --jobs_running_;
  }
  job.state = to;
  metrics_.counter(std::string("serve.jobs.") + std::string(to_string(to)))
      .increment();
  append_event_locked(job, /*progress=*/false);
}

void Server::append_event_locked(Job& job, bool progress) {
  const JobEvent& e = job.events.emplace_back(
      JobEvent{now_ns(), job.state, progress, job.ues_completed});
  // Mirror the polled event onto the telemetry bus: same seq (so a
  // streamed gap can be backfilled through the `events` cursor), plus
  // the job id and state the per-job poll path carries implicitly.
  // Publishing under state_mutex_ keeps bus order equal to seq order.
  json::Value payload = event_json(job, job.events.size() - 1);
  payload.set("id", job.id);
  payload.set("state", to_string(e.state));
  bus_.publish(progress ? obs::TelemetryKind::kProgress
                        : obs::TelemetryKind::kJobEvent,
               e.t_ns, payload);
}

obs::TraceRecorder Server::job_trace() const {
  const MutexLock lock(state_mutex_);
  std::vector<obs::TraceEvent> entered;  // kStateTransition by default
  for (const auto& [id, job] : jobs_) {
    for (const JobEvent& e : job->events) {
      if (!e.progress) {
        // to_string returns a string literal, which outlives the recorder.
        entered.push_back(
            {.t = sim::Time::from_ns(static_cast<std::int64_t>(e.t_ns)),
             .cell = static_cast<std::int64_t>(id),
             .label = to_string(e.state)});
      }
    }
  }
  // Jobs are visited in id order and each log is in time order, so a
  // stable sort by time keeps every job's own order.
  std::stable_sort(entered.begin(), entered.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     return a.t < b.t;
                   });
  obs::TraceRecorder recorder(obs::TraceConfig{entered.size()});
  for (const obs::TraceEvent& e : entered) {
    recorder.record(obs::Component::kServe, e);
  }
  return recorder;
}

std::uint64_t Server::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started_at_)
          .count());
}

Job* Server::find_job_locked(std::uint64_t id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

void Server::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (pr == 0) {
      continue;
    }
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      continue;
    }
    const MutexLock lock(conn_mutex_);
    connections_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void Server::connection_loop(int fd) {
  while (!stop_.load(std::memory_order_acquire)) {
    FrameReadResult frame = read_frame(fd, config_.max_request_frame, &stop_);
    if (frame.status == FrameStatus::kClosed) {
      break;
    }
    if (frame.status == FrameStatus::kTooLarge) {
      // The oversize payload was never read, so the stream can't be
      // re-synchronised: answer and close.
      (void)write_frame(
          fd, error_response(errc::kFrameTooLarge,
                             "request frame exceeds " +
                                 std::to_string(config_.max_request_frame) +
                                 " bytes")
                  .dump());
      break;
    }
    if (frame.status == FrameStatus::kError) {
      (void)write_frame(fd, error_response(errc::kBadFrame,
                                           "truncated or unreadable frame")
                                .dump());
      break;
    }
    json::Value response;
    bool start_stream = false;
    SubscribeParams params;
    try {
      const json::Value request = json::parse(frame.payload);
      const json::Value* type = request.find("type");
      if (type != nullptr && type->kind() == json::Value::Kind::kString &&
          type->as_string() == "subscribe") {
        // Validation and ack via the transport-free path; an ok ack
        // flips this connection into a server-push stream below.
        response = handle_subscribe(request, &params);
        const json::Value* ok = response.find("ok");
        start_stream = ok != nullptr && ok->is_bool() && ok->as_bool();
      } else {
        response = handle(request);
      }
    } catch (const json::ParseError& e) {
      // The frame boundary was intact, so the connection stays usable.
      response = error_response(errc::kBadJson, e.what());
    }
    if (start_stream) {
      // Subscribe *before* the ack goes out: any frame published after
      // the client has read the ack is guaranteed to be delivered (or
      // accounted for as dropped) — never silently missed in the gap
      // between acknowledging and attaching to the bus.
      const obs::TelemetryBus::SubscriberId sub =
          bus_.subscribe(params.filter, params.queue_capacity);
      if (!write_frame(fd, response.dump())) {
        bus_.unsubscribe(sub);
        break;
      }
      stream_loop(fd, params, sub);
      break;
    }
    if (!write_frame(fd, response.dump())) {
      break;
    }
  }
  ::close(fd);
}

// Between pushed frames the subscriber's own queue paces the stream;
// state is snapshotted into `prev` so delta frames only carry what moved.
struct Server::StatsDeltaState {
  bool first = true;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::uint64_t> histogram_counts;
};

json::Value Server::build_stats_frame(StatsDeltaState& prev, bool delta) {
  const MutexLock lock(state_mutex_);
  const bool full = !delta || prev.first;
  json::Value data = json::Value::object();
  data.set("full", json::Value::boolean(full));
  data.set("queue_depth", static_cast<std::uint64_t>(queue_.depth()));
  data.set("jobs_running", static_cast<std::uint64_t>(jobs_running_));
  data.set("draining", json::Value::boolean(draining_));

  json::Value counters = json::Value::object();
  for (const auto& [name, counter] : metrics_.counters()) {
    const std::uint64_t value = counter.value();
    if (full || prev.counters[name] != value) {
      counters.set(name, value);
    }
    prev.counters[name] = value;
  }
  json::Value gauges = json::Value::object();
  for (const auto& [name, gauge] : metrics_.gauges()) {
    const double value = gauge.value();
    if (full || prev.gauges[name] != value) {
      gauges.set(name, value);
    }
    prev.gauges[name] = value;
  }
  json::Value latency = json::Value::object();
  for (const auto& [name, histogram] : metrics_.histograms()) {
    const std::uint64_t count = histogram.count();
    if (full || prev.histogram_counts[name] != count) {
      latency.set(name,
                  obs::histogram_json(obs::HistogramSummary::from(histogram)));
    }
    prev.histogram_counts[name] = count;
  }
  data.set("counters", std::move(counters));
  data.set("gauges", std::move(gauges));
  data.set("latency", std::move(latency));
  prev.first = false;
  return data;
}

void Server::stream_loop(int fd, const SubscribeParams& params,
                         obs::TelemetryBus::SubscriberId sub) {
  const bool want_stats = params.filter.stats && params.snapshot_period_ms > 0;
  StatsDeltaState prev;
  std::uint64_t out_seq = 0;
  auto next_snapshot = std::chrono::steady_clock::now();  // immediate first

  const auto send = [&](obs::TelemetryKind kind, std::uint64_t t_ns,
                        json::Value data, std::uint64_t bus_seq,
                        std::uint64_t dropped) {
    json::Value frame = json::Value::object();
    frame.set("telemetry", json::Value::boolean(true));
    frame.set("v", obs::kTelemetryFrameVersion);
    frame.set("seq", out_seq++);
    if (bus_seq > 0) {
      frame.set("bus_seq", bus_seq);
    }
    frame.set("kind", to_string(kind));
    frame.set("t_ns", t_ns);
    if (dropped > 0) {
      frame.set("dropped", dropped);
    }
    frame.set("data", std::move(data));
    return write_frame(fd, frame.dump());
  };

  bool alive = true;
  while (alive && !stop_.load(std::memory_order_acquire)) {
    // A subscribed client must not send further requests; readable bytes
    // mean EOF (disconnect) or a protocol violation — stop either way.
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 0) > 0) {
      break;
    }

    const auto now = std::chrono::steady_clock::now();
    if (want_stats && now >= next_snapshot) {
      alive = send(obs::TelemetryKind::kStats, now_ns(),
                   build_stats_frame(prev, params.delta), 0, 0);
      next_snapshot =
          now + std::chrono::milliseconds(params.snapshot_period_ms);
      continue;
    }

    auto timeout = std::chrono::milliseconds(100);
    if (want_stats) {
      const auto until_snapshot =
          std::chrono::duration_cast<std::chrono::milliseconds>(next_snapshot -
                                                                now) +
          std::chrono::milliseconds(1);
      timeout = std::clamp(until_snapshot, std::chrono::milliseconds(1),
                           timeout);
    }
    obs::TelemetryBus::PopResult popped = bus_.pop(sub, timeout);
    std::uint64_t dropped = popped.dropped;
    for (obs::TelemetryFrame& f : popped.frames) {
      alive = send(f.kind, f.t_ns, std::move(f.payload), f.seq, dropped);
      dropped = 0;
      if (!alive) {
        break;
      }
    }
    if (popped.closed) {
      break;
    }
  }
  bus_.unsubscribe(sub);
}

void Server::worker_loop() {
  while (auto id = queue_.pop()) {
    run_job(*id);
  }
}

void Server::run_job(std::uint64_t id) {
  core::ScenarioSpec spec;
  const sim::CancelToken* cancel = nullptr;
  {
    const MutexLock lock(state_mutex_);
    metrics_.gauge("serve.queue_depth")
        .set(static_cast<double>(queue_.depth()));
    Job* job = find_job_locked(id);
    if (job == nullptr || job->state != JobState::kQueued) {
      return;  // cancelled while queued — already settled
    }
    job->started_at = std::chrono::steady_clock::now();
    metrics_.histogram("serve.queue_wait_ms")
        .add(ms_between(job->submitted_at, job->started_at));
    transition_locked(*job, JobState::kRunning);
    spec = std::move(job->spec);  // nothing reads it after this
    cancel = &job->cancel;
  }

  fleet::RunControl control;
  control.cancel = cancel;
  control.on_ue_complete = [this, id](std::size_t completed,
                                      std::size_t total) {
    const MutexLock lock(state_mutex_);
    Job* job = find_job_locked(id);
    if (job == nullptr) {
      return;
    }
    job->ues_completed = static_cast<std::uint64_t>(completed);
    job->ues_total = static_cast<std::uint64_t>(total);
    append_event_locked(*job, /*progress=*/true);
  };

  std::string report;
  std::string error;
  bool cancelled = false;
  std::uint64_t handovers = 0;
  std::uint64_t ping_pongs = 0;
  bool rate_enabled = false;
  std::vector<double> ue_throughput_mbps;
  std::vector<double> ue_outage_ms;
  try {
    const fleet::FleetResult result =
        fleet::run_fleet(spec, config_.fleet_threads, control);
    cancelled = result.cancelled;
    if (!cancelled) {
      const obs::FleetReport fleet_report =
          fleet::build_fleet_report(spec, result);
      handovers = fleet_report.handovers_successful;
      ping_pongs = fleet_report.ping_pongs;
      rate_enabled = fleet_report.rate_enabled;
      if (rate_enabled) {
        ue_throughput_mbps.reserve(fleet_report.ues.size());
        ue_outage_ms.reserve(fleet_report.ues.size());
        for (const obs::FleetUeReport& row : fleet_report.ues) {
          ue_throughput_mbps.push_back(row.throughput_mbps);
          ue_outage_ms.push_back(row.outage_ms);
        }
      }
      report = fleet_report.to_json();
      // The job keeps its report for the daemon's life: store a string
      // sized to its text, not to the capacity its rendering grew to.
      report.shrink_to_fit();
    }
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown error during fleet run";
  }

  const MutexLock lock(state_mutex_);
  Job* job = find_job_locked(id);
  if (job == nullptr) {
    return;
  }
  job->finished_at = std::chrono::steady_clock::now();
  metrics_.histogram("serve.run_ms")
      .add(ms_between(job->started_at, job->finished_at));
  if (!error.empty()) {
    job->error = std::move(error);
    transition_locked(*job, JobState::kFailed);
  } else if (cancelled) {
    transition_locked(*job, JobState::kCancelled);
  } else {
    job->report_json = std::move(report);
    // End-to-end latency (submit -> done) is only meaningful for jobs
    // that produced a result; cancelled/failed runs would skew the tail.
    metrics_.histogram("serve.e2e_ms")
        .add(ms_between(job->submitted_at, job->finished_at));
    metrics_.counter("fleet.handovers").increment(handovers);
    metrics_.counter("fleet.ping_pongs").increment(ping_pongs);
    if (rate_enabled) {
      // Per-UE rate outcomes feed the server-wide distributions; the
      // telemetry frames pick the histograms up automatically.
      LogLinearHistogram& throughput =
          metrics_.histogram("fleet.throughput_mbps");
      LogLinearHistogram& outage = metrics_.histogram("fleet.outage_ms");
      for (const double mbps : ue_throughput_mbps) {
        throughput.add(mbps);
      }
      for (const double ms : ue_outage_ms) {
        outage.add(ms);
      }
    }
    transition_locked(*job, JobState::kDone);
  }
}

}  // namespace st::serve
