// JobQueue and job-lifecycle edges under real contention: concurrent
// cancel vs worker pop vs shed at capacity. This file lives in the
// test_serve binary, which the TSan CI leg builds and runs — these
// tests are written to maximise interleavings (many small operations,
// threads started together), and the checked-lifecycle invariants
// (core/invariants.hpp, compiled in by the invariants leg) assert every
// transition these races produce stays on the Fig. 2b-style job state
// machine.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "serve/job.hpp"
#include "serve/job_queue.hpp"
#include "serve/server.hpp"

namespace {

using st::json::parse;
using st::json::Value;
using st::serve::JobQueue;
using st::serve::Server;
using st::serve::ServerConfig;

// ---- JobQueue: push vs pop vs close races ---------------------------------

TEST(JobQueueContention, EveryIdPoppedExactlyOnceOrShed) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 300;
  constexpr std::size_t kConsumers = 3;
  JobQueue queue(/*capacity=*/8);

  // Per-producer bookkeeping, merged after the joins — the test itself
  // must not serialise the threads it is trying to race.
  std::vector<std::vector<std::uint64_t>> admitted(kProducers);
  std::vector<std::uint64_t> shed_counts(kProducers, 0);
  std::vector<std::vector<std::uint64_t>> popped(kConsumers);

  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&queue, &popped, c] {
      for (;;) {
        const auto id = queue.pop();
        if (!id.has_value()) {
          return;  // closed and fully drained
        }
        popped[c].push_back(*id);
      }
    });
  }

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &admitted, &shed_counts, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t id = p * kPerProducer + i + 1;
        if (queue.try_push(id)) {
          admitted[p].push_back(id);
        } else {
          ++shed_counts[p];
        }
      }
    });
  }
  for (std::thread& t : producers) {
    t.join();
  }
  queue.close();
  for (std::thread& t : consumers) {
    t.join();
  }

  std::vector<std::uint64_t> all_admitted;
  std::uint64_t total_shed = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    all_admitted.insert(all_admitted.end(), admitted[p].begin(),
                        admitted[p].end());
    total_shed += shed_counts[p];
  }
  std::vector<std::uint64_t> all_popped;
  for (const auto& v : popped) {
    all_popped.insert(all_popped.end(), v.begin(), v.end());
  }

  // Conservation: every admitted id is handed to exactly one consumer
  // (close() drains, never drops), every rejection was counted, and no
  // id was invented.
  EXPECT_EQ(all_admitted.size() + total_shed, kProducers * kPerProducer);
  std::sort(all_admitted.begin(), all_admitted.end());
  std::sort(all_popped.begin(), all_popped.end());
  EXPECT_EQ(all_popped, all_admitted);
  EXPECT_EQ(queue.depth(), 0U);
  EXPECT_FALSE(queue.try_push(99999));  // closed stays closed
}

TEST(JobQueueContention, CloseWakesBlockedPops) {
  JobQueue queue(/*capacity=*/4);
  std::atomic<int> woke{0};
  std::vector<std::thread> blocked;
  blocked.reserve(3);
  for (int i = 0; i < 3; ++i) {
    blocked.emplace_back([&queue, &woke] {
      EXPECT_EQ(queue.pop(), std::nullopt);
      woke.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // No sleep: close() must be safe whether or not the pops got blocked
  // first — both interleavings are valid and both must terminate.
  queue.close();
  for (std::thread& t : blocked) {
    t.join();
  }
  EXPECT_EQ(woke.load(std::memory_order_relaxed), 3);
}

// ---- Server: cancel vs worker pop vs shed at capacity ---------------------

std::uint64_t counter_of(const Value& stats, const char* name) {
  return stats.find("stats")->find("jobs")->find(name)->as_u64();
}

TEST(ServerContention, ConcurrentCancelPopAndShedKeepLifecycleConsistent) {
  ServerConfig config;
  config.socket_path =
      "/tmp/st-serve-contention-" + std::to_string(::getpid()) + ".sock";
  config.queue_capacity = 2;  // small on purpose: shed must happen
  config.workers = 2;
  config.fleet_threads = 1;
  Server server(config);
  server.start();

  constexpr std::size_t kSubmitters = 3;
  constexpr std::size_t kPerSubmitter = 12;
  const char* job_text =
      R"({"type":"submit","job":{"preset":"paper_walk","overrides":{"duration_ms":25}}})";

  // Submitters race the workers for queue slots; a canceller races the
  // workers for each job it sees. Every outcome (done, cancelled, shed,
  // already_finished cancel ack) is legal — what must hold afterwards
  // is the conservation of jobs across terminal states.
  std::vector<std::vector<std::uint64_t>> submitted_ids(kSubmitters);
  std::atomic<bool> cancel_done{false};

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&server, &submitted_ids, job_text, s] {
      for (std::size_t i = 0; i < kPerSubmitter; ++i) {
        const Value response = server.handle(parse(job_text));
        const Value* id = response.find("id");
        // Both acks and shed rejections carry the job id.
        ASSERT_NE(id, nullptr) << response.dump();
        submitted_ids[s].push_back(id->as_u64());
      }
    });
  }

  std::thread canceller([&server, &cancel_done] {
    // Sweep ids 1..N repeatedly while submissions are in flight: cancels
    // land on queued, running, and already-terminal jobs alike.
    while (!cancel_done.load(std::memory_order_acquire)) {
      for (std::uint64_t id = 1; id <= kSubmitters * kPerSubmitter; id += 3) {
        Value req = Value::object();
        req.set("type", Value::string("cancel"));
        req.set("id", Value::unsigned_integer(id));
        const Value response = server.handle(req);
        if (!response.find("ok")->as_bool()) {
          const std::string code =
              response.find("error")->find("code")->as_string();
          EXPECT_TRUE(code == "unknown_job" || code == "already_cancelled" ||
                      code == "already_finished")
              << code;
        }
      }
    }
  });

  for (std::thread& t : submitters) {
    t.join();
  }
  server.request_drain();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!server.drained()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cancel_done.store(true, std::memory_order_release);
  canceller.join();

  // Every submitted id must have reached a terminal state, and the
  // counters must conserve: submitted == done + cancelled + failed + shed.
  const Value stats = server.handle(parse(R"({"type":"stats"})"));
  ASSERT_TRUE(stats.find("ok")->as_bool());
  const std::uint64_t submitted = counter_of(stats, "submitted");
  const std::uint64_t done = counter_of(stats, "done");
  const std::uint64_t cancelled = counter_of(stats, "cancelled");
  const std::uint64_t failed = counter_of(stats, "failed");
  const std::uint64_t shed = counter_of(stats, "shed");
  EXPECT_EQ(submitted, kSubmitters * kPerSubmitter);
  EXPECT_EQ(done + cancelled + failed + shed, submitted);
  // State counters are cumulative entries: every submission enters
  // queued (shed is a queued->shed transition), and only jobs the shed
  // valve admitted can ever start running.
  EXPECT_EQ(counter_of(stats, "queued"), submitted);
  EXPECT_LE(counter_of(stats, "running"), submitted - shed);
  EXPECT_EQ(failed, 0U);  // nothing here submits an invalid job
  EXPECT_EQ(stats.find("stats")->find("jobs_running")->as_u64(), 0U);
  EXPECT_EQ(stats.find("stats")->find("queue_depth")->as_u64(), 0U);

  std::set<std::uint64_t> unique_ids;
  for (const auto& ids : submitted_ids) {
    for (const std::uint64_t id : ids) {
      EXPECT_TRUE(unique_ids.insert(id).second) << "duplicate job id " << id;
      Value req = Value::object();
      req.set("type", Value::string("status"));
      req.set("id", Value::unsigned_integer(id));
      const Value status = server.handle(req);
      ASSERT_TRUE(status.find("ok")->as_bool()) << status.dump();
      const std::string state = status.find("state")->as_string();
      EXPECT_TRUE(state == "done" || state == "cancelled" || state == "shed")
          << "job " << id << " ended in non-terminal state " << state;
    }
  }
  EXPECT_EQ(unique_ids.size(), kSubmitters * kPerSubmitter);

  server.stop();
}

}  // namespace
