// stserved — the scenario service daemon.
//
// Listens on a Unix-domain socket, runs submitted fleet scenarios on a
// bounded worker pool, and exits cleanly on SIGINT/SIGTERM or once a
// client-requested drain has finished. See docs/SERVING.md.
//
//   stserved --socket /tmp/st.sock [--workers 2] [--queue-capacity 16]
//            [--fleet-threads 0] [--trace-out trace.json]
//
// --trace-out exports the daemon's job-queue timeline on exit as a
// Perfetto/chrome trace, rendered from the job table: one async span per
// job state (queued, running), terminal states as instants — load it at
// ui.perfetto.dev.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/options.hpp"
#include "obs/export.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_signalled = 0;

void on_signal(int) { g_signalled = 1; }

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: stserved --socket PATH [--workers N]\n"
               "                [--queue-capacity N] [--fleet-threads N]\n"
               "                [--trace-out PATH]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using st::bench::store;
  st::serve::ServerConfig config;
  std::string trace_out;
  st::bench::parse_options(
      argc, argv,
      {{"--socket", store(config.socket_path)},
       {"--workers", store(config.workers)},
       {"--queue-capacity", store(config.queue_capacity)},
       {"--fleet-threads", store(config.fleet_threads)},
       {"--trace-out", store(trace_out)}});
  if (config.socket_path.empty() || config.workers == 0 ||
      config.queue_capacity == 0) {
    usage();
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  st::serve::Server server(config);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stserved: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "stserved: listening on %s (%zu workers, queue %zu)\n",
               config.socket_path.c_str(), config.workers,
               config.queue_capacity);

  // Run until a signal arrives or a client-requested drain completes.
  while (g_signalled == 0 && !server.drained()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const bool drained = server.drained();
  server.stop();
  if (!trace_out.empty()) {
    if (st::obs::write_chrome_trace_file(server.job_trace(), trace_out)) {
      std::fprintf(stderr, "stserved: job trace written to %s\n",
                   trace_out.c_str());
    } else {
      std::fprintf(stderr, "stserved: failed to write trace to %s\n",
                   trace_out.c_str());
    }
  }
  std::fprintf(stderr, "stserved: %s\n",
               drained ? "drained, exiting" : "stopped");
  return 0;
}
