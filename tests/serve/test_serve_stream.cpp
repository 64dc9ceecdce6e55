// The streaming half of the scenario service: subscribe validation, the
// versioned push-frame schema, stats snapshot/delta framing, hostile
// subscribers (slow readers with verified drop accounting, mid-stream
// disconnects, subscribe-then-cancel), concurrent subscribers, and the
// replay pin that every streamed job event is also reachable through the
// seq-cursor poll path — the stream is a latency optimisation, never the
// only copy of the truth.
//
// Runs in the test_serve binary, so the TSan CI leg exercises the full
// publisher/subscriber thread mesh under the race detector.
#include <gtest/gtest.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using st::json::parse;
using st::json::Value;
using st::serve::Client;
using st::serve::Server;
using st::serve::ServerConfig;

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

std::uint64_t u64_field(const Value& v, const char* key) {
  const Value* f = v.find(key);
  return f == nullptr ? 0 : f->u64_or(0);
}

Value subscribe_request(const char* body) { return parse(body); }

// ---- subscribe validation (transport-free handle()) -----------------------

TEST(ServeSubscribe, AckEchoesResolvedParameters) {
  Server server(ServerConfig{});
  const Value ack = server.handle(subscribe_request(
      R"({"type": "subscribe", "filter": "stats", "snapshot_period_ms": 500,
          "delta": false, "queue": 8})"));
  ASSERT_TRUE(ok(ack)) << ack.dump();
  EXPECT_TRUE(ack.find("subscribed")->as_bool());
  EXPECT_EQ(ack.find("filter")->as_string(), "stats");
  EXPECT_EQ(u64_field(ack, "snapshot_period_ms"), 500U);
  EXPECT_FALSE(ack.find("delta")->as_bool());
  EXPECT_EQ(u64_field(ack, "queue"), 8U);
  EXPECT_EQ(u64_field(ack, "frame_version"), 1U);
}

TEST(ServeSubscribe, DefaultsAndClamping) {
  ServerConfig config;
  config.telemetry_queue = 128;
  Server server(config);

  // Bare subscribe: filter all, server-default queue.
  const Value bare = server.handle(subscribe_request(R"({"type": "subscribe"})"));
  ASSERT_TRUE(ok(bare));
  EXPECT_EQ(bare.find("filter")->as_string(), "all");
  EXPECT_EQ(u64_field(bare, "queue"), 128U);

  // Period 0 disables snapshots; otherwise clamps to [10, 60000] ms.
  EXPECT_EQ(u64_field(server.handle(subscribe_request(
                R"({"type": "subscribe", "snapshot_period_ms": 0})")),
                      "snapshot_period_ms"),
            0U);
  EXPECT_EQ(u64_field(server.handle(subscribe_request(
                R"({"type": "subscribe", "snapshot_period_ms": 1})")),
                      "snapshot_period_ms"),
            10U);
  EXPECT_EQ(u64_field(server.handle(subscribe_request(
                R"({"type": "subscribe", "snapshot_period_ms": 9999999})")),
                      "snapshot_period_ms"),
            60000U);
  // Queue clamps to [1, 65536].
  EXPECT_EQ(u64_field(server.handle(subscribe_request(
                R"({"type": "subscribe", "queue": 1000000})")),
                      "queue"),
            65536U);
}

TEST(ServeSubscribe, MalformedRequestsAreTypedErrors) {
  Server server(ServerConfig{});
  for (const char* bad : {
           R"({"type": "subscribe", "filter": "bogus"})",
           R"({"type": "subscribe", "filter": 7})",
           R"({"type": "subscribe", "delta": "yes"})",
           R"({"type": "subscribe", "snapshot_period_ms": "fast"})",
           R"({"type": "subscribe", "queue": -3})",
       }) {
    const Value response = server.handle(parse(bad));
    EXPECT_FALSE(ok(response)) << bad;
    EXPECT_EQ(error_code(response), st::serve::errc::kBadRequest) << bad;
  }
}

// ---- streaming over a real socket -----------------------------------------

class ServeStream : public ::testing::Test {
 protected:
  void start(const char* tag, std::size_t workers = 2,
             std::size_t queue_capacity = 8) {
    config_.socket_path = "/tmp/st-stream-test-" +
                          std::to_string(::getpid()) + "-" + tag + ".sock";
    config_.workers = workers;
    config_.queue_capacity = queue_capacity;
    config_.fleet_threads = 1;
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

  /// Fresh connection turned into a push stream. Asserts the ack.
  void subscribe(Client& sub, const char* filter,
                 std::uint32_t snapshot_period_ms, bool delta = true,
                 std::size_t queue = 0) {
    ASSERT_TRUE(sub.connect(config_.socket_path));
    const Value ack = sub.subscribe(filter, snapshot_period_ms, delta, queue);
    ASSERT_TRUE(ok(ack)) << ack.dump();
  }

  /// Drain frames until `until(frame)` returns true or the deadline
  /// passes; returns all frames seen (the matching one last).
  std::vector<Value> collect_until(
      Client& sub, const std::function<bool(const Value&)>& until,
      int deadline_ms = 30000) {
    std::vector<Value> frames;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    bool closed = false;
    while (!closed && std::chrono::steady_clock::now() < deadline) {
      auto frame = sub.next_frame(/*timeout_ms=*/200, &closed);
      if (!frame.has_value()) {
        continue;
      }
      frames.push_back(std::move(*frame));
      if (until(frames.back())) {
        return frames;
      }
    }
    return frames;
  }

  std::uint64_t submit_job(const char* job_text) {
    const Value submitted = client_.submit(parse(job_text));
    EXPECT_TRUE(ok(submitted)) << submitted.dump();
    return u64_field(submitted, "id");
  }

  static bool is_terminal_for(const Value& frame, std::uint64_t id,
                              const char* event) {
    const Value* data = frame.find("data");
    if (data == nullptr || u64_field(*data, "id") != id) {
      return false;
    }
    const Value* ev = data->find("event");
    return ev != nullptr && ev->string_or("") == event;
  }

  ServerConfig config_;
  std::unique_ptr<Server> server_;
  Client client_;
};

TEST_F(ServeStream, LifecycleFramesArriveInOrderWithSchema) {
  start("lifecycle");
  Client sub;
  subscribe(sub, "events", 0);

  const std::uint64_t id = submit_job(
      R"({"preset": "paper_walk", "overrides": {"duration_ms": 300, "n_ues": 2}})");
  const auto frames = collect_until(
      sub, [&](const Value& f) { return is_terminal_for(f, id, "done"); });
  ASSERT_FALSE(frames.empty());
  ASSERT_TRUE(is_terminal_for(frames.back(), id, "done"));

  // Schema: every frame is versioned, marked, timed, and contiguous in
  // the per-stream sequence.
  std::uint64_t expect_seq = 0;
  std::vector<std::string> events;
  for (const Value& frame : frames) {
    EXPECT_TRUE(frame.find("telemetry")->as_bool());
    EXPECT_EQ(u64_field(frame, "v"), 1U);
    EXPECT_EQ(u64_field(frame, "seq"), expect_seq++);
    EXPECT_GT(u64_field(frame, "bus_seq"), 0U);
    EXPECT_NE(frame.find("t_ns"), nullptr);
    const std::string kind = frame.find("kind")->as_string();
    EXPECT_TRUE(kind == "job" || kind == "progress") << kind;
    const Value* data = frame.find("data");
    ASSERT_NE(data, nullptr);
    if (u64_field(*data, "id") == id) {
      events.push_back(std::string(data->find("event")->string_or("")));
    }
  }
  // queued, running, one progress frame per UE, done.
  ASSERT_EQ(events.size(), 5U) << frames.back().dump();
  EXPECT_EQ(events[0], "queued");
  EXPECT_EQ(events[1], "running");
  EXPECT_EQ(events[2], "ue_complete");
  EXPECT_EQ(events[3], "ue_complete");
  EXPECT_EQ(events[4], "done");
}

TEST_F(ServeStream, StatsStreamSendsFullThenDeltas) {
  start("statsdelta");
  // Finish one job first so the lifecycle counters exist (metrics are
  // created on first touch) and show up in the full snapshot.
  const std::uint64_t warmup = submit_job(
      R"({"preset": "paper_walk", "overrides": {"duration_ms": 100}})");
  ASSERT_TRUE(client_.wait(warmup).has_value());

  Client sub;
  subscribe(sub, "stats", /*snapshot_period_ms=*/50, /*delta=*/true);

  const auto frames = collect_until(
      sub,
      [n = 0](const Value&) mutable { return ++n >= 3; },
      /*deadline_ms=*/10000);
  ASSERT_GE(frames.size(), 3U);
  for (const Value& frame : frames) {
    EXPECT_EQ(frame.find("kind")->as_string(), "stats");
    // Stats snapshots are stream-local, not bus-published frames.
    EXPECT_EQ(frame.find("bus_seq"), nullptr);
  }
  // First snapshot is complete; later ones carry only changes.
  EXPECT_TRUE(frames[0].find("data")->find("full")->as_bool());
  EXPECT_FALSE(frames[1].find("data")->find("full")->as_bool());
  EXPECT_FALSE(frames[2].find("data")->find("full")->as_bool());
  // The full snapshot names the lifecycle counters.
  EXPECT_NE(frames[0].find("data")->find("counters")->find(
                "serve.jobs.submitted"),
            nullptr);
}

TEST_F(ServeStream, SlowReaderLosesOldestFramesAndIsTold) {
  start("slow");
  Client sub;
  // A reader that never reads: full (non-delta) stats snapshots at the
  // shortest period fill the socket until the server's stream thread
  // blocks in write_frame, and then the capacity-1 queue keeps only the
  // newest bus frame.
  subscribe(sub, "all", /*snapshot_period_ms=*/1, /*delta=*/false,
            /*queue=*/1);

  const auto telemetry = [&](const char* field) {
    const Value stats = client_.stats();
    return u64_field(*stats.find("stats")->find("telemetry"), field);
  };
  const char* const job =
      R"({"preset": "paper_walk", "overrides": {"duration_ms": 200}})";

  // Bytes the stream thread wrote that the reader has not read.
  const auto unread_bytes = [&sub] {
    int n = -1;
    return ::ioctl(sub.fd(), FIONREAD, &n) == 0 ? n : -1;
  };

  // Probe jobs until the stream thread is blocked in a write, where it
  // stays for as long as nobody reads. Two signs must agree. A probe job
  // lost every frame it published: the thread did not pop while the job
  // ran. And the unread bytes stayed put from before the job until 25
  // snapshot periods after it: the thread did not write either. The first
  // sign alone is also what a thread shows that was merely descheduled
  // (or busy) while the job ran; such a thread resumes writing and would
  // deliver the burst below frame by frame.
  std::uint64_t jobs_done = 0;
  const auto fill_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (bool blocked = false; !blocked;) {
    ASSERT_LT(std::chrono::steady_clock::now(), fill_deadline)
        << "the stream thread never blocked";
    const int unread = unread_bytes();
    const std::uint64_t published = telemetry("published");
    const std::uint64_t dropped = telemetry("dropped");
    ASSERT_TRUE(client_.wait(submit_job(job)).has_value());
    ++jobs_done;
    if (telemetry("dropped") - dropped != telemetry("published") - published) {
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    blocked = unread > 0 && unread_bytes() == unread;
  }

  // The burst under test, while the stream thread is blocked.
  std::set<std::uint64_t> burst;
  for (int i = 0; i < 3; ++i) {
    burst.insert(submit_job(job));
  }
  for (const std::uint64_t id : burst) {
    ASSERT_TRUE(client_.wait(id).has_value());
    ++jobs_done;
  }

  // Drain. The stream thread sends one stats snapshot built after the
  // burst, then the one bus frame its queue kept, then the next snapshot;
  // after the second such snapshot every bus frame has been read.
  std::uint64_t dropped = 0;
  std::uint64_t received = 0;
  int snapshots_after_burst = 0;
  bool closed = false;
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (snapshots_after_burst < 2 && !closed &&
         std::chrono::steady_clock::now() < drain_deadline) {
    const auto frame = sub.next_frame(/*timeout_ms=*/100, &closed);
    if (!frame.has_value()) {
      continue;
    }
    const Value* data = frame->find("data");
    ASSERT_NE(data, nullptr);
    if (frame->find("kind")->as_string() == "stats") {
      if (u64_field(*data->find("counters"), "serve.jobs.done") == jobs_done) {
        ++snapshots_after_burst;
      }
      continue;
    }
    dropped += u64_field(*frame, "dropped");
    if (burst.contains(u64_field(*data, "id"))) {
      ++received;
    }
  }
  ASSERT_EQ(snapshots_after_burst, 2);
  // 3 jobs x (queued, running, ue_complete, done) = 12 bus frames; a
  // size-1 queue cannot have delivered them all.
  EXPECT_GT(dropped, 0U);
  EXPECT_LT(received, 12U);

  // The server-side ledger agrees someone lost frames.
  EXPECT_GE(telemetry("dropped"), dropped);
}

TEST_F(ServeStream, DisconnectMidStreamCleansUpAndServerStaysHealthy) {
  start("disconnect");
  auto subscriber_count = [&] {
    const Value stats = client_.stats();
    return u64_field(*stats.find("stats")->find("telemetry"), "subscribers");
  };

  {
    Client sub;
    subscribe(sub, "all", 100);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (subscriber_count() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(subscriber_count(), 1U);
    // Hard disconnect while the server is mid-push.
    sub.close();
  }

  // The stream loop notices and unsubscribes.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (subscriber_count() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(subscriber_count(), 0U);

  // And the daemon still serves jobs afterwards.
  const std::uint64_t id = submit_job(
      R"({"preset": "paper_walk", "overrides": {"duration_ms": 100}})");
  const auto final_status = client_.wait(id);
  ASSERT_TRUE(final_status.has_value());
  EXPECT_EQ(final_status->find("state")->as_string(), "done");
}

TEST_F(ServeStream, SubscribeThenCancelStreamsTheCancellation) {
  start("cancel", /*workers=*/1);
  Client sub;
  subscribe(sub, "events", 0);

  // Long job (10 min of sim time) so the cancel lands mid-run.
  const std::uint64_t id = submit_job(
      R"({"preset": "paper_walk", "overrides": {"duration_ms": 600000}})");
  const auto running = collect_until(
      sub, [&](const Value& f) { return is_terminal_for(f, id, "running"); });
  ASSERT_FALSE(running.empty());

  const Value cancelled = client_.cancel(id);
  ASSERT_TRUE(ok(cancelled)) << cancelled.dump();

  const auto frames = collect_until(sub, [&](const Value& f) {
    return is_terminal_for(f, id, "cancelled");
  });
  ASSERT_FALSE(frames.empty());
  EXPECT_TRUE(is_terminal_for(frames.back(), id, "cancelled"));
  EXPECT_EQ(frames.back().find("data")->find("state")->string_or(""),
            "cancelled");
}

TEST_F(ServeStream, ConcurrentSubscribersEachSeeTheWholeLifecycle) {
  start("fanout");
  constexpr std::size_t kSubscribers = 3;
  std::vector<std::unique_ptr<Client>> subs;
  for (std::size_t i = 0; i < kSubscribers; ++i) {
    subs.push_back(std::make_unique<Client>());
    subscribe(*subs.back(), "events", 0);
  }

  const std::uint64_t id = submit_job(
      R"({"preset": "paper_walk", "overrides": {"duration_ms": 300}})");

  std::vector<std::thread> readers;
  std::vector<int> seen(kSubscribers, 0);
  for (std::size_t i = 0; i < kSubscribers; ++i) {
    readers.emplace_back([&, i] {
      const auto frames = collect_until(
          *subs[i], [&](const Value& f) { return is_terminal_for(f, id, "done"); });
      if (!frames.empty() && is_terminal_for(frames.back(), id, "done")) {
        seen[i] = 1;
      }
    });
  }
  for (auto& t : readers) {
    t.join();
  }
  for (std::size_t i = 0; i < kSubscribers; ++i) {
    EXPECT_EQ(seen[i], 1) << "subscriber " << i << " missed the done frame";
  }
}

// The replay pin: a streamed job event is never the only copy. Every
// (id, data.seq) pushed over the stream must be reachable through the
// `events` cursor poll with identical event kind — so a consumer that
// drops frames can always backfill the gap.
TEST_F(ServeStream, StreamedEventsMatchThePollReplay) {
  start("replay");
  Client sub;
  subscribe(sub, "events", 0);

  const std::uint64_t id = submit_job(
      R"({"preset": "paper_walk", "overrides": {"duration_ms": 300, "n_ues": 2}})");
  const auto frames = collect_until(
      sub, [&](const Value& f) { return is_terminal_for(f, id, "done"); });
  ASSERT_TRUE(!frames.empty() && is_terminal_for(frames.back(), id, "done"));

  const Value polled = client_.events(id, /*after=*/0);
  ASSERT_TRUE(ok(polled));
  std::map<std::uint64_t, std::string> by_seq;
  for (const Value& e : polled.find("events")->items()) {
    by_seq[e.find("seq")->as_u64()] = e.find("event")->as_string();
  }

  std::size_t matched = 0;
  for (const Value& frame : frames) {
    const Value* data = frame.find("data");
    if (data == nullptr || u64_field(*data, "id") != id) {
      continue;
    }
    const std::uint64_t seq = u64_field(*data, "seq");
    ASSERT_TRUE(by_seq.count(seq) > 0) << "streamed seq " << seq
                                       << " missing from poll replay";
    EXPECT_EQ(by_seq[seq], data->find("event")->string_or("")) << seq;
    ++matched;
  }
  // Full lifecycle streamed and replayed: queued, running, 2x ue_complete,
  // done.
  EXPECT_EQ(matched, by_seq.size());
  EXPECT_EQ(by_seq.size(), 5U);
}

TEST_F(ServeStream, StatsResponseCarriesProvenanceAndLatencyTails) {
  start("provenance");
  const std::uint64_t id = submit_job(
      R"({"preset": "paper_walk", "overrides": {"duration_ms": 100}})");
  ASSERT_TRUE(client_.wait(id).has_value());

  const Value response = client_.stats();
  ASSERT_TRUE(ok(response));
  const Value* stats = response.find("stats");
  ASSERT_NE(stats, nullptr);

  const Value* provenance = stats->find("provenance");
  ASSERT_NE(provenance, nullptr);
  for (const char* key :
       {"git_describe", "compiler", "build_type", "simd_dispatch"}) {
    const Value* field = provenance->find(key);
    ASSERT_NE(field, nullptr) << key;
    EXPECT_FALSE(field->as_string().empty()) << key;
  }

  // Per-job latency instrumentation: all three digests, each with the
  // p999 tail, and at least the finished job in the e2e histogram.
  // Digest keys drop the "serve." prefix on the wire.
  const Value* latency = stats->find("latency");
  ASSERT_NE(latency, nullptr);
  for (const char* name : {"queue_wait_ms", "run_ms", "e2e_ms"}) {
    const Value* digest = latency->find(name);
    ASSERT_NE(digest, nullptr) << name;
    EXPECT_NE(digest->find("p999"), nullptr) << name;
  }
  EXPECT_GE(u64_field(*latency->find("e2e_ms"), "count"), 1U);
  EXPECT_GE(stats->find("jobs_per_second")->as_double(), 0.0);
  EXPECT_NE(stats->find("shed_rate"), nullptr);
}

}  // namespace
