// stctl — command-line client of the scenario service.
//
//   stctl --socket PATH ping
//   stctl --socket PATH submit --preset paper_walk [--seed N]
//         [--overrides '{"n_ues": 8}']
//   stctl --socket PATH status ID | events ID [--after N] | result ID
//   stctl --socket PATH cancel ID | stats | drain
//   stctl --socket PATH run --preset paper_walk [--seed N] [--overrides J]
//   stctl --socket PATH watch [--period-ms N] [--frames N]
//   stctl --socket PATH tail [--job ID] [--frames N]
//
// `run` submits, waits for completion, and prints the report JSON —
// the one-shot form the CI smoke test pipes into `python3 -m json.tool`.
// `watch` subscribes to the stats stream and redraws a one-screen view
// per snapshot; `tail` subscribes to the event stream and prints one
// line per job lifecycle / progress frame. Both run until the stream
// closes (daemon drained or stopped) or --frames N frames were shown.
// Exit codes: 0 ok, 1 typed server error, 2 usage/transport error.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench/options.hpp"
#include "serve/client.hpp"

namespace {

using st::json::Value;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: stctl --socket PATH COMMAND [args]\n"
               "  ping | stats | drain\n"
               "  submit --preset NAME [--seed N] [--overrides JSON]\n"
               "  run    --preset NAME [--seed N] [--overrides JSON]\n"
               "  status ID | events ID [--after N] | result ID | cancel ID\n"
               "  wait ID [--timeout-ms N]\n"
               "  watch [--period-ms N] [--frames N]\n"
               "  tail  [--job ID] [--frames N]\n");
  std::exit(2);
}

/// Connect, retrying briefly so a freshly forked daemon can finish
/// binding its socket.
st::serve::Client& connect_or_die(st::serve::Client& client,
                                  const std::string& socket_path) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5000);
  while (!client.connect(socket_path)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "stctl: cannot connect to %s\n",
                   socket_path.c_str());
      std::exit(2);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return client;
}

[[nodiscard]] bool response_ok(const Value& response) {
  const Value* ok = response.find("ok");
  return ok != nullptr && ok->kind() == st::json::Value::Kind::kBool &&
         ok->as_bool();
}

int print_response(const Value& response) {
  std::printf("%s\n", response.dump().c_str());
  return response_ok(response) ? 0 : 1;
}

/// Build the submission document from --preset/--seed/--overrides.
Value job_from_args(const std::string& preset, const std::string& seed,
                    const std::string& overrides) {
  Value job = Value::object();
  job.set("preset", Value::string(preset));
  if (!seed.empty()) {
    job.set("seed", Value::unsigned_integer(std::strtoull(seed.c_str(), nullptr, 10)));
  }
  if (!overrides.empty()) {
    job.set("overrides", st::json::parse(overrides));
  }
  return job;
}

[[nodiscard]] std::uint64_t field_u64(const Value* obj, const char* key) {
  if (obj == nullptr) {
    return 0;
  }
  const Value* v = obj->find(key);
  return v == nullptr ? 0 : v->u64_or(0);
}

/// One-screen rendering of a full stats frame (watch subscribes with
/// delta=false, so every frame is complete and needs no merge state).
void render_stats_frame(const Value& frame, const std::string& socket_path) {
  const Value* data = frame.find("data");
  if (data == nullptr) {
    return;
  }
  if (::isatty(STDOUT_FILENO) != 0) {
    std::printf("\x1b[H\x1b[2J");
  }
  const double t_s =
      static_cast<double>(field_u64(&frame, "t_ns")) / 1e9;
  const Value* draining = data->find("draining");
  std::printf("stserved %s — up %.1fs%s\n", socket_path.c_str(), t_s,
              draining != nullptr && draining->bool_or(false)
                  ? "  [draining]"
                  : "");
  std::printf("queue depth %llu   running %llu\n",
              static_cast<unsigned long long>(field_u64(data, "queue_depth")),
              static_cast<unsigned long long>(field_u64(data, "jobs_running")));
  const Value* counters = data->find("counters");
  std::printf("jobs");
  for (const char* name :
       {"submitted", "queued", "running", "done", "cancelled", "failed",
        "shed"}) {
    std::printf("  %s=%llu", name,
                static_cast<unsigned long long>(field_u64(
                    counters, (std::string("serve.jobs.") + name).c_str())));
  }
  std::printf("\n");
  const Value* latency = data->find("latency");
  if (latency != nullptr) {
    std::printf("%-22s %10s %10s %10s %10s %10s\n", "latency (ms)", "count",
                "p50", "p99", "p999", "max");
    for (const auto& [name, digest] : latency->members()) {
      std::printf("%-22s %10llu %10.2f %10.2f %10.2f %10.2f\n", name.c_str(),
                  static_cast<unsigned long long>(field_u64(&digest, "count")),
                  digest.find("p50") != nullptr ? digest.find("p50")->as_double()
                                                : 0.0,
                  digest.find("p99") != nullptr ? digest.find("p99")->as_double()
                                                : 0.0,
                  digest.find("p999") != nullptr
                      ? digest.find("p999")->as_double()
                      : 0.0,
                  digest.find("max") != nullptr ? digest.find("max")->as_double()
                                                : 0.0);
    }
  }
  const std::uint64_t dropped = field_u64(&frame, "dropped");
  if (dropped > 0) {
    std::printf("!! %llu telemetry frames dropped (slow consumer)\n",
                static_cast<unsigned long long>(dropped));
  }
  std::fflush(stdout);
}

/// One line per streamed job/progress frame.
void render_event_frame(const Value& frame) {
  const Value* data = frame.find("data");
  if (data == nullptr) {
    return;
  }
  const double t_s = static_cast<double>(field_u64(&frame, "t_ns")) / 1e9;
  const Value* event = data->find("event");
  const std::uint64_t dropped = field_u64(&frame, "dropped");
  if (dropped > 0) {
    std::printf("[%10.3f] !! %llu frames dropped\n", t_s,
                static_cast<unsigned long long>(dropped));
  }
  std::printf("[%10.3f] job %llu %s", t_s,
              static_cast<unsigned long long>(field_u64(data, "id")),
              event != nullptr ? std::string(event->string_or("?")).c_str()
                               : "?");
  if (data->find("ues_completed") != nullptr) {
    std::printf(" (%llu/%llu ues)",
                static_cast<unsigned long long>(
                    field_u64(data, "ues_completed")),
                static_cast<unsigned long long>(field_u64(data, "ues_total")));
  }
  std::printf("  seq=%llu\n",
              static_cast<unsigned long long>(field_u64(data, "seq")));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using st::bench::store;
  std::string socket_path;
  std::string preset;
  std::string seed;
  std::string overrides;
  std::uint64_t after = 0;
  int timeout_ms = 120000;
  std::uint32_t period_ms = 1000;
  std::uint64_t max_frames = 0;
  std::uint64_t only_job = 0;
  st::bench::consume_options(argc, argv,
                             {{"--socket", store(socket_path)},
                              {"--preset", store(preset)},
                              {"--seed", store(seed)},
                              {"--overrides", store(overrides)},
                              {"--after", store(after)},
                              {"--timeout-ms", store(timeout_ms)},
                              {"--period-ms", store(period_ms)},
                              {"--frames", store(max_frames)},
                              {"--job", store(only_job)}});
  // What is left is the positional COMMAND [ID].
  if (argc < 2 || argc > 3 || socket_path.empty()) {
    usage();
  }
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-' || argv[i][0] == '\0') {
      usage();
    }
  }
  const std::string command = argv[1];
  const bool have_id = argc == 3;
  const std::uint64_t id =
      have_id ? std::strtoull(argv[2], nullptr, 10) : 0;

  st::serve::Client client;
  connect_or_die(client, socket_path);
  try {
    if (command == "ping") {
      return print_response(client.ping());
    }
    if (command == "stats") {
      return print_response(client.stats());
    }
    if (command == "drain") {
      return print_response(client.drain());
    }
    if (command == "submit" || command == "run") {
      if (preset.empty()) {
        usage();
      }
      const Value job = job_from_args(preset, seed, overrides);
      Value submitted = client.submit(job);
      if (!response_ok(submitted) || command == "submit") {
        return print_response(submitted);
      }
      const std::uint64_t job_id = submitted.find("id")->as_u64();
      const auto final_status = client.wait(job_id, timeout_ms);
      if (!final_status.has_value()) {
        std::fprintf(stderr, "stctl: job %llu timed out\n",
                     static_cast<unsigned long long>(job_id));
        return 2;
      }
      Value result = client.result(job_id);
      if (!response_ok(result)) {
        return print_response(result);
      }
      std::printf("%s\n", result.find("report")->dump().c_str());
      return 0;
    }
    if (command == "watch" || command == "tail") {
      const bool watch = command == "watch";
      // watch wants complete snapshots (no merge state client-side);
      // tail wants lifecycle/progress frames only, no snapshots.
      Value ack = watch ? client.subscribe("stats", period_ms, /*delta=*/false)
                        : client.subscribe("events", 0);
      if (!response_ok(ack)) {
        return print_response(ack);
      }
      std::uint64_t shown = 0;
      bool closed = false;
      while (!closed) {
        const auto frame = client.next_frame(/*timeout_ms=*/1000, &closed);
        if (!frame.has_value()) {
          continue;  // idle poll tick; closed breaks the loop
        }
        if (watch) {
          render_stats_frame(*frame, socket_path);
        } else {
          const Value* data = frame->find("data");
          if (only_job != 0 && field_u64(data, "id") != only_job) {
            continue;
          }
          render_event_frame(*frame);
        }
        if (max_frames > 0 && ++shown >= max_frames) {
          break;
        }
      }
      return 0;
    }
    if (!have_id) {
      usage();
    }
    if (command == "status") {
      return print_response(client.status(id));
    }
    if (command == "events") {
      return print_response(client.events(id, after));
    }
    if (command == "result") {
      Value result = client.result(id);
      if (!response_ok(result)) {
        return print_response(result);
      }
      std::printf("%s\n", result.find("report")->dump().c_str());
      return 0;
    }
    if (command == "cancel") {
      return print_response(client.cancel(id));
    }
    if (command == "wait") {
      const auto final_status = client.wait(id, timeout_ms);
      if (!final_status.has_value()) {
        std::fprintf(stderr, "stctl: job %llu timed out\n",
                     static_cast<unsigned long long>(id));
        return 2;
      }
      return print_response(*final_status);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stctl: %s\n", e.what());
    return 2;
  }
  usage();
}
