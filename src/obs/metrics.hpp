// Metric registry for the telemetry layer: named counters, gauges, and
// log-linear histograms, created on first use and owned by the registry.
//
// Names are dotted paths grouping by subsystem ("engine.dispatch_us",
// "phy.snapshot_cache.hit_rate", "serve.jobs.submitted"); the RunReport
// walks the registry and emits every metric it finds, so instrumented
// code never has to register anything up front.
//
// The protocols' fixed event counters are not registry metrics: they are
// an enum-indexed array (obs::ProtocolCounters in obs/trace.hpp). The
// registry holds the open-ended rest, including histograms — the
// p50/p95/p99 material of the run report — and hands out stable
// references so hot paths can cache `registry.counter("x")` once and skip
// the name lookup.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/stats.hpp"

namespace st::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void increment(std::uint64_t by = 1) noexcept { value_ += by; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (queue depth, hit rate, ...).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  /// Keep the running maximum (high-water-mark gauges).
  void set_max(double v) noexcept {
    if (v > value_) {
      value_ = v;
    }
  }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

class MetricRegistry {
 public:
  /// Find-or-create. References stay valid for the registry's lifetime
  /// (node-based map), so callers may cache them across hot loops.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LogLinearHistogram& histogram(std::string_view name,
                                unsigned sub_buckets_per_octave = 16);

  /// Value of a counter, 0 if it was never touched.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const noexcept;
  /// Histogram lookup without creating; nullptr if absent.
  [[nodiscard]] const LogLinearHistogram* find_histogram(
      std::string_view name) const noexcept;

  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters()
      const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge, std::less<>>& gauges()
      const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, LogLinearHistogram, std::less<>>&
  histograms() const noexcept {
    return histograms_;
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, LogLinearHistogram, std::less<>> histograms_;
};

}  // namespace st::obs
