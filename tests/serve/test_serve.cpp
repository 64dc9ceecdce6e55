// The scenario service end to end: job lifecycle, overload shedding,
// cooperative cancellation, graceful drain, server health metrics, the
// exported job timeline, and hostile wire-protocol input — plus the
// acceptance pin that a served job's report is bit-identical to calling
// run_fleet directly.
//
// Lifecycle/robustness tests run against Server::handle() without a
// socket (an unstarted Server has no workers, so queued jobs hold
// still); the loopback tests exercise the full daemon over a real
// AF_UNIX socket, including raw malformed bytes.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/spec_json.hpp"
#include "fleet/engine.hpp"
#include "obs/export.hpp"
#include "serve/client.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"

namespace {

using st::json::parse;
using st::json::Value;
using st::serve::Client;
using st::serve::JobState;
using st::serve::Server;
using st::serve::ServerConfig;

// ---- helpers --------------------------------------------------------------

std::string test_socket_path(const char* tag) {
  return "/tmp/st-serve-test-" + std::to_string(::getpid()) + "-" + tag +
         ".sock";
}

Value submit_request(const char* job_text) {
  Value req = Value::object();
  req.set("type", Value::string("submit"));
  req.set("job", parse(job_text));
  return req;
}

Value typed_id(const char* type, std::uint64_t id) {
  Value req = Value::object();
  req.set("type", Value::string(type));
  req.set("id", Value::unsigned_integer(id));
  return req;
}

bool ok(const Value& response) {
  const Value* v = response.find("ok");
  return v != nullptr && v->as_bool();
}

std::string error_code(const Value& response) {
  const Value* err = response.find("error");
  if (err == nullptr || err->find("code") == nullptr) {
    return "";
  }
  return err->find("code")->as_string();
}

std::string state_of(const Value& response) {
  const Value* v = response.find("state");
  return v == nullptr ? "" : v->as_string();
}

/// Deep-copy a document minus the wall-clock fields — the only
/// legitimately non-deterministic report content.
Value scrub_wall_clock(const Value& v) {
  if (v.is_object()) {
    Value out = Value::object();
    for (const Value::Member& m : v.members()) {
      if (m.first == "wall_seconds" || m.first == "ues_per_second" ||
          m.first == "wall_per_sim_second") {
        continue;
      }
      out.set(m.first, scrub_wall_clock(m.second));
    }
    return out;
  }
  if (v.is_array()) {
    Value out = Value::array();
    for (const Value& e : v.items()) {
      out.push_back(scrub_wall_clock(e));
    }
    return out;
  }
  return v;
}

// ---- transport-free lifecycle tests (unstarted server: no workers) --------

TEST(ServeHandle, PingAndUnknownType) {
  Server server(ServerConfig{});
  EXPECT_TRUE(ok(server.handle(parse(R"({"type": "ping"})"))));
  const Value bad = server.handle(parse(R"({"type": "warp"})"));
  EXPECT_FALSE(ok(bad));
  EXPECT_EQ(error_code(bad), "unknown_type");
}

TEST(ServeHandle, MalformedRequestsAreTypedErrors) {
  Server server(ServerConfig{});
  EXPECT_EQ(error_code(server.handle(parse("[1,2]"))), "bad_request");
  EXPECT_EQ(error_code(server.handle(parse("{}"))), "bad_request");
  EXPECT_EQ(error_code(server.handle(parse(R"({"type": 7})"))), "bad_request");
  EXPECT_EQ(error_code(server.handle(parse(R"({"type": "status"})"))),
            "bad_request");
  EXPECT_EQ(
      error_code(server.handle(parse(R"({"type": "status", "id": "x"})"))),
      "bad_request");
  EXPECT_EQ(error_code(server.handle(parse(R"({"type": "submit"})"))),
            "bad_request");
  EXPECT_EQ(error_code(server.handle(
                submit_request(R"({"preset": "paper_walk", "junk": 1})"))),
            "bad_request");
  EXPECT_EQ(error_code(server.handle(typed_id("status", 404))), "unknown_job");
}

TEST(ServeHandle, SubmitQueuesAndReportsStatus) {
  Server server(ServerConfig{});
  const Value submitted =
      server.handle(submit_request(R"({"preset": "paper_walk", "seed": 5})"));
  ASSERT_TRUE(ok(submitted));
  const std::uint64_t id = submitted.find("id")->as_u64();
  EXPECT_EQ(state_of(submitted), "queued");

  const Value status = server.handle(typed_id("status", id));
  ASSERT_TRUE(ok(status));
  EXPECT_EQ(state_of(status), "queued");
  EXPECT_EQ(status.find("ues_total")->as_u64(), 1U);
  EXPECT_EQ(status.find("ues_completed")->as_u64(), 0U);

  const Value result = server.handle(typed_id("result", id));
  EXPECT_FALSE(ok(result));
  EXPECT_EQ(error_code(result), "not_done");
}

TEST(ServeHandle, BoundedQueueShedsWithTypedResponse) {
  ServerConfig config;
  config.queue_capacity = 2;
  Server server(config);
  const char* job = R"({"preset": "paper_walk"})";
  EXPECT_TRUE(ok(server.handle(submit_request(job))));
  EXPECT_TRUE(ok(server.handle(submit_request(job))));

  const Value shed = server.handle(submit_request(job));
  EXPECT_FALSE(ok(shed));
  EXPECT_EQ(error_code(shed), "shed");
  ASSERT_NE(shed.find("id"), nullptr);
  const std::uint64_t shed_id = shed.find("id")->as_u64();

  // The shed job is a terminal record, not a ghost.
  EXPECT_EQ(state_of(server.handle(typed_id("status", shed_id))), "shed");
  EXPECT_EQ(error_code(server.handle(typed_id("result", shed_id))), "shed");
  EXPECT_EQ(error_code(server.handle(typed_id("cancel", shed_id))),
            "already_finished");

  const Value stats = server.handle(parse(R"({"type": "stats"})"));
  const Value* jobs = stats.find("stats")->find("jobs");
  EXPECT_EQ(jobs->find("submitted")->as_u64(), 3U);
  EXPECT_EQ(jobs->find("shed")->as_u64(), 1U);
  EXPECT_EQ(stats.find("stats")->find("queue_depth")->as_u64(), 2U);
}

TEST(ServeHandle, CancelQueuedJobAndDoubleCancel) {
  Server server(ServerConfig{});
  const Value submitted =
      server.handle(submit_request(R"({"preset": "paper_walk"})"));
  const std::uint64_t id = submitted.find("id")->as_u64();

  const Value first = server.handle(typed_id("cancel", id));
  ASSERT_TRUE(ok(first));
  EXPECT_EQ(state_of(first), "cancelled");

  // Double-cancel is a typed error, not a crash or a second transition.
  const Value second = server.handle(typed_id("cancel", id));
  EXPECT_FALSE(ok(second));
  EXPECT_EQ(error_code(second), "already_cancelled");

  EXPECT_EQ(error_code(server.handle(typed_id("result", id))), "cancelled");
}

TEST(ServeHandle, DrainRejectsNewSubmissions) {
  Server server(ServerConfig{});
  EXPECT_TRUE(ok(server.handle(parse(R"({"type": "drain"})"))));
  const Value rejected =
      server.handle(submit_request(R"({"preset": "paper_walk"})"));
  EXPECT_FALSE(ok(rejected));
  EXPECT_EQ(error_code(rejected), "draining");
  EXPECT_TRUE(server.drained());
}

TEST(ServeHandle, EventsAreCursorable) {
  Server server(ServerConfig{});
  const Value submitted =
      server.handle(submit_request(R"({"preset": "paper_walk"})"));
  const std::uint64_t id = submitted.find("id")->as_u64();
  (void)server.handle(typed_id("cancel", id));

  const Value all = server.handle(typed_id("events", id));
  ASSERT_TRUE(ok(all));
  const auto& events = all.find("events")->items();
  ASSERT_EQ(events.size(), 2U);
  EXPECT_EQ(events[0].find("event")->as_string(), "queued");
  EXPECT_EQ(events[1].find("event")->as_string(), "cancelled");

  // Resume from the cursor: nothing new.
  Value after = typed_id("events", id);
  after.set("after", *all.find("next"));
  EXPECT_TRUE(server.handle(after).find("events")->items().empty());

  // Resume mid-log: the events from that seq on.
  after.set("after", Value::unsigned_integer(1));
  const Value tail = server.handle(after);
  ASSERT_EQ(tail.find("events")->items().size(), 1U);
  EXPECT_EQ(tail.find("events")->items()[0].dump(), events[1].dump());
  EXPECT_EQ(tail.find("next")->as_u64(), 2U);
}

TEST(ServeJobStateMachine, TableMatchesLifecycle) {
  using st::serve::job_state_terminal;
  using st::serve::job_transition_allowed;
  EXPECT_TRUE(job_transition_allowed(JobState::kQueued, JobState::kRunning));
  EXPECT_TRUE(job_transition_allowed(JobState::kQueued, JobState::kShed));
  EXPECT_TRUE(job_transition_allowed(JobState::kRunning, JobState::kDone));
  EXPECT_TRUE(
      job_transition_allowed(JobState::kRunning, JobState::kCancelled));
  EXPECT_TRUE(job_transition_allowed(JobState::kRunning, JobState::kFailed));
  // Resurrection and double-claim edges are illegal.
  EXPECT_FALSE(job_transition_allowed(JobState::kDone, JobState::kRunning));
  EXPECT_FALSE(job_transition_allowed(JobState::kShed, JobState::kQueued));
  EXPECT_FALSE(job_transition_allowed(JobState::kQueued, JobState::kDone));
  EXPECT_FALSE(job_transition_allowed(JobState::kRunning, JobState::kRunning));
  EXPECT_FALSE(
      job_transition_allowed(JobState::kCancelled, JobState::kCancelled));
  EXPECT_TRUE(job_state_terminal(JobState::kDone));
  EXPECT_TRUE(job_state_terminal(JobState::kShed));
  EXPECT_FALSE(job_state_terminal(JobState::kRunning));
}

// ---- the --trace-out job timeline ------------------------------------------

TEST(ServeJobTrace, OneAsyncSpanPerStateEnteredAndATerminalInstant) {
  ServerConfig config;
  config.socket_path = test_socket_path("trace");
  config.workers = 1;
  config.queue_capacity = 1;
  config.fleet_threads = 1;
  Server server(config);
  const char* job =
      R"({"preset": "paper_walk", "overrides": {"duration_ms": 500}})";
  // No worker pops before start(), so the queue's one slot settles the
  // order: job 1 is cancelled while queued, and job 2 is shed behind it.
  const Value first = server.handle(submit_request(job));
  ASSERT_TRUE(ok(first));
  const std::uint64_t cancelled = first.find("id")->as_u64();
  ASSERT_TRUE(ok(server.handle(typed_id("cancel", cancelled))));
  const Value second = server.handle(submit_request(job));
  ASSERT_EQ(error_code(second), "shed");
  const std::uint64_t shed = second.find("id")->as_u64();

  // The worker pops the cancelled id and skips it; the slot is then free.
  server.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.handle(parse(R"({"type": "stats"})"))
             .find("stats")
             ->find("queue_depth")
             ->as_u64() != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Value third = server.handle(submit_request(job));
  ASSERT_TRUE(ok(third));
  const std::uint64_t done = third.find("id")->as_u64();
  while (state_of(server.handle(typed_id("status", done))) != "done") {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();

  std::ostringstream os;
  ASSERT_TRUE(st::obs::write_chrome_trace(server.job_trace(), os));
  const Value doc = parse(os.str());
  // "ph:name" of every async job event, per chrome async id, in order.
  std::map<std::string, std::vector<std::string>> spans;
  for (const Value& e : doc.find("traceEvents")->items()) {
    const Value* cat = e.find("cat");
    if (cat == nullptr || cat->as_string() != "job") {
      continue;
    }
    spans[e.find("id")->as_string()].push_back(e.find("ph")->as_string() +
                                               ":" +
                                               e.find("name")->as_string());
  }
  const auto key = [](std::uint64_t id) {
    return "job-" + std::to_string(id);
  };
  ASSERT_EQ(spans.size(), 3U);
  EXPECT_EQ(spans[key(cancelled)],
            (std::vector<std::string>{"b:queued", "e:queued", "n:cancelled"}));
  EXPECT_EQ(spans[key(shed)],
            (std::vector<std::string>{"b:queued", "e:queued", "n:shed"}));
  EXPECT_EQ(spans[key(done)],
            (std::vector<std::string>{"b:queued", "e:queued", "b:running",
                                      "e:running", "n:done"}));
}

// ---- loopback tests (real daemon over a real socket) ----------------------

class ServeLoopback : public ::testing::Test {
 protected:
  void start(const char* tag, std::size_t workers = 2,
             std::size_t queue_capacity = 8, unsigned fleet_threads = 2) {
    config_.socket_path = test_socket_path(tag);
    config_.workers = workers;
    config_.queue_capacity = queue_capacity;
    config_.fleet_threads = fleet_threads;
    server_ = std::make_unique<Server>(config_);
    server_->start();
    ASSERT_TRUE(client_.connect(config_.socket_path));
  }

  void TearDown() override {
    client_.close();
    if (server_ != nullptr) {
      server_->stop();
    }
  }

  ServerConfig config_;
  std::unique_ptr<Server> server_;
  Client client_;
};

TEST_F(ServeLoopback, ServedReportIsBitIdenticalToDirectRun) {
  start("ident");
  const char* job_text = R"({
    "preset": "paper_walk",
    "seed": 42,
    "overrides": {"duration_ms": 1500, "n_ues": 3}
  })";

  const Value submitted = client_.submit(parse(job_text));
  ASSERT_TRUE(ok(submitted)) << submitted.dump();
  const std::uint64_t id = submitted.find("id")->as_u64();
  const auto final_status = client_.wait(id);
  ASSERT_TRUE(final_status.has_value());
  ASSERT_EQ(state_of(*final_status), "done") << final_status->dump();

  const Value served = client_.result(id);
  ASSERT_TRUE(ok(served)) << served.dump();

  // Same spec, same seed, same thread count, run directly.
  const auto spec = st::core::spec_from_job_json(parse(job_text));
  const auto direct = st::fleet::run_fleet(spec, config_.fleet_threads);
  const std::string direct_json =
      st::fleet::build_fleet_report(spec, direct).to_json();

  EXPECT_EQ(scrub_wall_clock(*served.find("report")).dump(),
            scrub_wall_clock(parse(direct_json)).dump());
}

TEST_F(ServeLoopback, ProgressEventsArriveInOrder) {
  start("events");
  const Value submitted = client_.submit(parse(
      R"({"preset": "paper_walk", "overrides": {"duration_ms": 500, "n_ues": 2}})"));
  ASSERT_TRUE(ok(submitted));
  const std::uint64_t id = submitted.find("id")->as_u64();
  ASSERT_TRUE(client_.wait(id).has_value());

  const Value events = client_.events(id);
  ASSERT_TRUE(ok(events));
  const auto& items = events.find("events")->items();
  // queued, running, one ue_complete per UE, done — in seq order.
  ASSERT_EQ(items.size(), 5U);
  EXPECT_EQ(items.front().find("event")->as_string(), "queued");
  EXPECT_EQ(items[1].find("event")->as_string(), "running");
  EXPECT_EQ(items.back().find("event")->as_string(), "done");
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].find("seq")->as_u64(), i);
  }
  const Value status = client_.status(id);
  EXPECT_EQ(status.find("ues_completed")->as_u64(), 2U);
}

TEST_F(ServeLoopback, MidRunCancellationStopsTheWorker) {
  start("cancel", /*workers=*/1, /*queue_capacity=*/8, /*fleet_threads=*/1);
  // A job long enough (10 min of sim time) that it cannot finish before
  // the cancel lands.
  const Value submitted = client_.submit(parse(
      R"({"preset": "paper_walk", "overrides": {"duration_ms": 600000}})"));
  ASSERT_TRUE(ok(submitted));
  const std::uint64_t id = submitted.find("id")->as_u64();

  // Wait until the worker has actually claimed it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (state_of(client_.status(id)) != "running") {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const Value cancelled = client_.cancel(id);
  ASSERT_TRUE(ok(cancelled)) << cancelled.dump();
  // Cooperative cancellation lands within one scenario step — far
  // sooner than the minutes the job would otherwise take.
  const auto final_status = client_.wait(id, /*timeout_ms=*/10000);
  ASSERT_TRUE(final_status.has_value());
  EXPECT_EQ(state_of(*final_status), "cancelled");
  EXPECT_EQ(error_code(client_.result(id)), "cancelled");
  EXPECT_EQ(error_code(client_.cancel(id)), "already_cancelled");
}

TEST_F(ServeLoopback, GracefulDrainFinishesRunningJobs) {
  start("drain", /*workers=*/1);
  const Value submitted = client_.submit(parse(
      R"({"preset": "paper_walk", "overrides": {"duration_ms": 2000}})"));
  ASSERT_TRUE(ok(submitted));
  const std::uint64_t id = submitted.find("id")->as_u64();

  ASSERT_TRUE(ok(client_.drain()));
  // New work is rejected...
  const Value rejected =
      client_.submit(parse(R"({"preset": "paper_walk"})"));
  EXPECT_EQ(error_code(rejected), "draining");

  // ...but the admitted job still runs to completion.
  const auto final_status = client_.wait(id);
  ASSERT_TRUE(final_status.has_value());
  EXPECT_EQ(state_of(*final_status), "done");
  EXPECT_TRUE(ok(client_.result(id)));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!server_->drained()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST_F(ServeLoopback, StatsReportServerHealth) {
  start("stats");
  const Value submitted = client_.submit(parse(
      R"({"preset": "paper_walk", "overrides": {"duration_ms": 500}})"));
  ASSERT_TRUE(ok(submitted));
  ASSERT_TRUE(client_.wait(submitted.find("id")->as_u64()).has_value());

  const Value stats = client_.stats();
  ASSERT_TRUE(ok(stats)) << stats.dump();
  const Value* s = stats.find("stats");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->find("jobs")->find("submitted")->as_u64(), 1U);
  EXPECT_EQ(s->find("jobs")->find("done")->as_u64(), 1U);
  EXPECT_EQ(s->find("queue_depth")->as_u64(), 0U);
  // Latency histograms recorded the run.
  const Value* latency = s->find("latency");
  ASSERT_NE(latency->find("queue_wait_ms"), nullptr);
  EXPECT_EQ(latency->find("run_ms")->find("count")->as_u64(), 1U);
}

// ---- hostile wire input over the real socket ------------------------------

TEST_F(ServeLoopback, MalformedJsonGetsTypedErrorAndConnectionSurvives) {
  start("badjson");
  const Value response = client_.request_raw(R"({"type": "ping)");
  EXPECT_FALSE(ok(response));
  EXPECT_EQ(error_code(response), "bad_json");
  // Frame boundary was intact: the same connection still works.
  EXPECT_TRUE(ok(client_.ping()));
}

TEST_F(ServeLoopback, OversizeFrameIsRejectedBeforeAllocation) {
  start("oversize");
  // A header promising 512 MiB — far beyond the 1 MiB request cap. The
  // server must answer without ever reading (or allocating) a payload.
  const unsigned char header[4] = {0x00, 0x00, 0x00, 0x20};
  ASSERT_EQ(::write(client_.fd(), header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  auto frame = st::serve::read_frame(
      client_.fd(), st::serve::kMaxResponseFrameBytes, nullptr);
  ASSERT_EQ(frame.status, st::serve::FrameStatus::kOk);
  const Value response = parse(frame.payload);
  EXPECT_EQ(error_code(response), "frame_too_large");
}

TEST_F(ServeLoopback, TruncatedFrameGetsTypedErrorNotAHang) {
  start("truncated");
  // Header promises 64 bytes; send 10 and close the write side.
  const unsigned char header[4] = {64, 0, 0, 0};
  ASSERT_EQ(::write(client_.fd(), header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  ASSERT_EQ(::write(client_.fd(), "0123456789", 10), 10);
  ASSERT_EQ(::shutdown(client_.fd(), SHUT_WR), 0);
  auto frame = st::serve::read_frame(
      client_.fd(), st::serve::kMaxResponseFrameBytes, nullptr);
  ASSERT_EQ(frame.status, st::serve::FrameStatus::kOk);
  EXPECT_EQ(error_code(parse(frame.payload)), "bad_frame");
}

TEST_F(ServeLoopback, UnknownTypeOverTheWire) {
  start("unknown");
  const Value response = client_.request_raw(R"({"type": "selfdestruct"})");
  EXPECT_FALSE(ok(response));
  EXPECT_EQ(error_code(response), "unknown_type");
}

TEST_F(ServeLoopback, SubmissionErrorsAreTyped) {
  start("badsubmit");
  // Unknown override key.
  Value bad = client_.submit(
      parse(R"({"preset": "paper_walk", "overrides": {"durationms": 1}})"));
  EXPECT_EQ(error_code(bad), "bad_request");
  // Spec the library itself rejects.
  bad = client_.submit(
      parse(R"({"preset": "paper_walk", "overrides": {"cells": 0}})"));
  EXPECT_EQ(error_code(bad), "bad_request");
  // Unknown preset.
  bad = client_.submit(parse(R"({"preset": "warp_drive"})"));
  EXPECT_EQ(error_code(bad), "bad_request");
}

}  // namespace
