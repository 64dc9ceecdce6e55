// E13 — service load bench (extension).
//
// Drives a real stserved over its Unix socket — by default an in-process
// serve::Server on a private socket, or an external daemon via --socket —
// and measures the serving plane itself rather than the physics: jobs/sec,
// client-observed completion latency (p50/p99/p999), and the shed rate
// under overload. Jobs are deliberately tiny (short sim duration, one UE)
// so the numbers are dominated by queueing, scheduling, and framing, not
// by fleet compute.
//
// Two phases:
//  * closed loop — C client threads submit-and-wait back to back for S
//    seconds, with one telemetry subscriber attached (the live-stats
//    stream rides along under load, as it would in production);
//  * open loop — one client paces submissions at a fixed rate R for S
//    seconds regardless of completions. Pick R above the service's
//    capacity (small queue, one worker) and the bounded queue must shed;
//    the shed rate and the server-side e2e latency digest are the
//    overload story.
//
//   ./bench_serve [--socket PATH] [--workers N] [--queue-capacity N]
//                 [--fleet-threads N] [--clients C] [--seconds S]
//                 [--open-rate R] [--duration-ms D] [--ues U]
//                 [--out BENCH_serve.json]
//
// Writes BENCH_serve.json (BENCH_micro schema: a "benchmarks" array plus
// named extra blocks, including the server's own stats response with its
// provenance block).
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/thread_annotations.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using st::json::Value;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string socket;  // empty = in-process server
  std::size_t workers = 2;
  std::size_t queue_capacity = 8;
  unsigned fleet_threads = 1;
  std::size_t clients = 4;
  double seconds = 2.0;
  double open_rate = 200.0;  // jobs/s; 0 skips the open-loop phase
  std::int64_t duration_ms = 200;
  std::size_t ues = 1;
  std::string out = "BENCH_serve.json";
};

[[nodiscard]] Value tiny_job(const Options& opt, std::uint64_t seed) {
  Value overrides = Value::object();
  overrides.set("duration_ms", static_cast<double>(opt.duration_ms));
  overrides.set("n_ues", opt.ues);
  Value job = Value::object();
  job.set("preset", "paper_walk");
  job.set("seed", seed);
  job.set("overrides", std::move(overrides));
  return job;
}

[[nodiscard]] bool response_ok(const Value& response) {
  const Value* ok = response.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

[[nodiscard]] bool is_shed(const Value& response) {
  const Value* error = response.find("error");
  if (error == nullptr) {
    return false;
  }
  const Value* code = error->find("code");
  return code != nullptr && code->string_or("") == "shed";
}

[[nodiscard]] Value latency_digest(const st::SampleSet& samples) {
  Value v = Value::object();
  v.set("count", samples.count());
  if (!samples.empty()) {
    v.set("mean", samples.mean());
    v.set("p50", samples.percentile(50.0));
    v.set("p99", samples.percentile(99.0));
    v.set("p999", samples.percentile(99.9));
    v.set("max", samples.max());
  }
  return v;
}

struct ClosedLoopResult {
  std::uint64_t done = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  double wall_seconds = 0.0;
  st::SampleSet latency_ms;  // client-observed submit -> terminal
  std::uint64_t telemetry_frames = 0;
  std::uint64_t telemetry_dropped = 0;
};

ClosedLoopResult run_closed_loop(const Options& opt,
                                 const std::string& socket_path) {
  // The merge target shared by the subscriber and client threads; a named
  // struct so the result carries its capability annotation (locals cannot).
  struct Merge {
    st::Mutex mutex;
    ClosedLoopResult result ST_GUARDED_BY(mutex);
  } merge;

  // A live subscriber rides along: the stats/event stream is part of the
  // serving plane's steady-state cost, so the bench keeps one attached.
  std::atomic<bool> stop_subscriber{false};
  std::thread subscriber([&] {
    st::serve::Client sub;
    if (!sub.connect(socket_path) || !response_ok(sub.subscribe("all", 200))) {
      return;
    }
    std::uint64_t frames = 0;
    std::uint64_t dropped = 0;
    bool closed = false;
    while (!stop_subscriber.load(std::memory_order_acquire) && !closed) {
      const auto frame = sub.next_frame(50, &closed);
      if (frame.has_value()) {
        ++frames;
        const Value* d = frame->find("dropped");
        dropped += d == nullptr ? 0 : d->u64_or(0);
      }
    }
    const st::MutexLock lock(merge.mutex);
    merge.result.telemetry_frames = frames;
    merge.result.telemetry_dropped = dropped;
  });

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  std::vector<std::thread> threads;
  threads.reserve(opt.clients);
  for (std::size_t c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      st::serve::Client client;
      if (!client.connect(socket_path)) {
        return;
      }
      st::SampleSet latencies;
      std::uint64_t done = 0;
      std::uint64_t shed = 0;
      std::uint64_t errors = 0;
      std::uint64_t seed = 1000 * (c + 1);
      while (Clock::now() < deadline) {
        const auto t0 = Clock::now();
        Value submitted = client.submit(tiny_job(opt, seed++));
        if (!response_ok(submitted)) {
          if (is_shed(submitted)) {
            ++shed;
          } else {
            ++errors;
          }
          continue;
        }
        const Value* id = submitted.find("id");
        const auto final_status =
            client.wait(id->as_u64(), /*timeout_ms=*/60'000,
                        /*poll_interval_ms=*/2);
        if (!final_status.has_value()) {
          ++errors;
          continue;
        }
        const Value* state = final_status->find("state");
        if (state != nullptr && state->string_or("") == "done") {
          ++done;
          latencies.add(std::chrono::duration<double, std::milli>(
                            Clock::now() - t0)
                            .count());
        } else {
          ++errors;
        }
      }
      const st::MutexLock lock(merge.mutex);
      merge.result.done += done;
      merge.result.shed += shed;
      merge.result.errors += errors;
      merge.result.latency_ms.add_all(latencies.samples());
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  stop_subscriber.store(true, std::memory_order_release);
  subscriber.join();
  // Everything has joined; the lock is uncontended but keeps the guarded
  // access capability-clean.
  const st::MutexLock lock(merge.mutex);
  merge.result.wall_seconds = wall_seconds;
  return merge.result;
}

struct OpenLoopResult {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  double submit_seconds = 0.0;
  double settle_seconds = 0.0;
};

OpenLoopResult run_open_loop(const Options& opt,
                             const std::string& socket_path) {
  OpenLoopResult result;
  st::serve::Client client;
  if (!client.connect(socket_path)) {
    result.errors = 1;
    return result;
  }
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / opt.open_rate));
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  auto next_submit = start;
  std::uint64_t seed = 500'000;
  std::vector<std::uint64_t> accepted_ids;
  while (Clock::now() < deadline) {
    std::this_thread::sleep_until(next_submit);
    next_submit += interval;
    ++result.submitted;
    Value submitted = client.submit(tiny_job(opt, seed++));
    if (response_ok(submitted)) {
      ++result.accepted;
      accepted_ids.push_back(submitted.find("id")->as_u64());
    } else if (is_shed(submitted)) {
      ++result.shed;
    } else {
      ++result.errors;
    }
  }
  result.submit_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Let the backlog settle so the e2e digest covers every accepted job.
  const auto settle_start = Clock::now();
  for (const std::uint64_t id : accepted_ids) {
    if (!client.wait(id, /*timeout_ms=*/60'000, /*poll_interval_ms=*/5)
             .has_value()) {
      ++result.errors;
    }
  }
  result.settle_seconds =
      std::chrono::duration<double>(Clock::now() - settle_start).count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  st::bench::parse_options(
      argc, argv,
      {{"--socket", st::bench::store(opt.socket)},
       {"--workers", st::bench::store(opt.workers)},
       {"--queue-capacity", st::bench::store(opt.queue_capacity)},
       {"--fleet-threads", st::bench::store(opt.fleet_threads)},
       {"--clients", st::bench::store(opt.clients)},
       {"--seconds", st::bench::store(opt.seconds)},
       {"--open-rate", st::bench::store(opt.open_rate)},
       {"--duration-ms", st::bench::store(opt.duration_ms)},
       {"--ues", st::bench::store(opt.ues)},
       {"--out", st::bench::store(opt.out)}});

  std::cout << "E13: service load bench (jobs/sec, latency tail, shedding)\n";

  // Default: an in-process server on a private socket — the identical
  // daemon code path (accept thread, framing, workers), minus the fork.
  std::unique_ptr<st::serve::Server> server;
  std::string socket_path = opt.socket;
  if (socket_path.empty()) {
    st::serve::ServerConfig config;
    config.socket_path = "/tmp/st-bench-serve-" +
                         std::to_string(::getpid()) + ".sock";
    config.workers = opt.workers;
    config.queue_capacity = opt.queue_capacity;
    config.fleet_threads = opt.fleet_threads;
    server = std::make_unique<st::serve::Server>(config);
    try {
      server->start();
    } catch (const std::exception& e) {
      std::cerr << "bench_serve: " << e.what() << "\n";
      return 1;
    }
    socket_path = config.socket_path;
  }

  const ClosedLoopResult closed = run_closed_loop(opt, socket_path);
  const double closed_jps =
      closed.wall_seconds > 0.0
          ? static_cast<double>(closed.done) / closed.wall_seconds
          : 0.0;
  std::printf(
      "closed loop: %zu clients, %.1fs — %llu done (%.1f jobs/s), %llu "
      "shed, %llu errors\n",
      opt.clients, closed.wall_seconds,
      static_cast<unsigned long long>(closed.done), closed_jps,
      static_cast<unsigned long long>(closed.shed),
      static_cast<unsigned long long>(closed.errors));
  if (!closed.latency_ms.empty()) {
    std::printf("  latency ms: p50 %.2f  p99 %.2f  p999 %.2f  max %.2f\n",
                closed.latency_ms.percentile(50.0),
                closed.latency_ms.percentile(99.0),
                closed.latency_ms.percentile(99.9), closed.latency_ms.max());
  }
  std::printf("  telemetry stream: %llu frames, %llu dropped\n",
              static_cast<unsigned long long>(closed.telemetry_frames),
              static_cast<unsigned long long>(closed.telemetry_dropped));

  OpenLoopResult open;
  double open_jps = 0.0;
  if (opt.open_rate > 0.0) {
    open = run_open_loop(opt, socket_path);
    open_jps = open.submit_seconds + open.settle_seconds > 0.0
                   ? static_cast<double>(open.accepted) /
                         (open.submit_seconds + open.settle_seconds)
                   : 0.0;
    std::printf(
        "open loop: target %.0f jobs/s for %.1fs — %llu submitted, %llu "
        "accepted, %llu shed (%.1f%%), settle %.1fs\n",
        opt.open_rate, open.submit_seconds,
        static_cast<unsigned long long>(open.submitted),
        static_cast<unsigned long long>(open.accepted),
        static_cast<unsigned long long>(open.shed),
        open.submitted > 0 ? 100.0 * static_cast<double>(open.shed) /
                                 static_cast<double>(open.submitted)
                           : 0.0,
        open.settle_seconds);
  }

  // The server's own view: per-job histograms (queue_wait/run/e2e with
  // p999), shed rate, jobs/sec, and the provenance block.
  Value stats_response = Value::object();
  {
    st::serve::Client client;
    if (client.connect(socket_path)) {
      stats_response = client.stats();
    }
  }

  if (server != nullptr) {
    server->stop();
  }

  Value doc = Value::object();
  Value benchmarks = Value::array();
  benchmarks.push_back(st::bench::benchmark_json(
      "serve/closed_loop/clients:" + std::to_string(opt.clients),
      closed_jps > 0.0 ? 1e9 / closed_jps : 0.0, closed_jps));
  if (opt.open_rate > 0.0) {
    benchmarks.push_back(st::bench::benchmark_json(
        "serve/open_loop/rate:" +
            std::to_string(static_cast<long long>(opt.open_rate)),
        open_jps > 0.0 ? 1e9 / open_jps : 0.0, open_jps));
  }
  doc.set("benchmarks", std::move(benchmarks));

  Value closed_block = Value::object();
  closed_block.set("clients", opt.clients);
  closed_block.set("wall_seconds", closed.wall_seconds);
  closed_block.set("done", closed.done);
  closed_block.set("shed", closed.shed);
  closed_block.set("errors", closed.errors);
  closed_block.set("jobs_per_second", closed_jps);
  closed_block.set("latency_ms", latency_digest(closed.latency_ms));
  closed_block.set("telemetry_frames", closed.telemetry_frames);
  closed_block.set("telemetry_dropped", closed.telemetry_dropped);
  doc.set("closed_loop", std::move(closed_block));

  if (opt.open_rate > 0.0) {
    Value open_block = Value::object();
    open_block.set("target_rate", opt.open_rate);
    open_block.set("submitted", open.submitted);
    open_block.set("accepted", open.accepted);
    open_block.set("shed", open.shed);
    open_block.set("errors", open.errors);
    open_block.set("shed_rate", open.submitted > 0
                                    ? static_cast<double>(open.shed) /
                                          static_cast<double>(open.submitted)
                                    : 0.0);
    open_block.set("submit_seconds", open.submit_seconds);
    open_block.set("settle_seconds", open.settle_seconds);
    open_block.set("jobs_per_second", open_jps);
    doc.set("open_loop", std::move(open_block));
  }

  if (const Value* stats = stats_response.find("stats")) {
    // Server-side digests (queue_wait/run/e2e with p999), shed_rate,
    // telemetry counters, and the provenance block, verbatim.
    doc.set("server_stats", *stats);
  }

  std::ofstream out_file(opt.out);
  out_file << doc.dump() << "\n";
  if (!out_file) {
    std::cerr << "bench_serve: failed to write " << opt.out << "\n";
    return 1;
  }
  std::cout << "wrote " << opt.out
            << "\nShape check: the open loop's target rate exceeds "
               "capacity, so shed > 0 and the bounded queue holds the "
               "e2e tail; the closed loop stays shed-free.\n";
  return 0;
}
