// Measurement plumbing shared by every workload: clocks, the host probe,
// peak RSS, and the one-line JSON result the benchmark prints last. Order
// statistics come from the program's own st::SampleSet.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace stbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where spans and fingerprints are written (created if missing).
  std::string out_dir = ".bench_build/out";
};

/// Highest resident set of this process so far [MiB].
[[nodiscard]] double peak_rss_mb();

/// Fixed memory-bound probe: a dependent pointer chase over an 8 MiB
/// ring in a fixed order. Its wall time tracks how much the host's
/// memory system is being shared right now; it is a diagnostic only and
/// never normalises another metric. The chase runs in a forked child,
/// which this call waits for, so the ring never counts towards this
/// process's peak RSS. Call it only while the process has one thread.
/// Throws std::runtime_error if the child cannot run.
[[nodiscard]] double host_probe_ms();

/// One named metric of the final result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: the last line of its standard output.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`,
  /// every value printed with full precision.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace stbench
