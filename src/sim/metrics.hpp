// Measurement recording for experiments.
//
// The metric layer is the only place allowed to look at simulator ground
// truth (true best beams, true alignment): protocols under test consume
// RSS samples only. Series are plain value containers so experiments can
// copy/merge them across repetitions.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace st::sim {

/// A (time, value) series, e.g. neighbour-cell RSS over a run — the raw
/// material of the paper's Fig. 2c traces.
class TimeSeries {
 public:
  struct Point {
    Time t;
    double value;
  };

  /// Append a point. Ordering contract: `points()` is always sorted by
  /// non-decreasing time — the simulator's clock never goes backwards, so
  /// in-order recording is the O(1) fast path; an out-of-order `record`
  /// (e.g. merging series assembled off the sim clock) is accepted and
  /// inserted at its sorted position (O(n) worst case). `value_at` relies
  /// on this order.
  void record(Time t, double value);

  [[nodiscard]] std::span<const Point> points() const noexcept {
    return points_;
  }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

  /// Last value at or before `t`; `fallback` if none.
  [[nodiscard]] double value_at(Time t, double fallback = 0.0) const noexcept;

  /// Render "t_ms,value" CSV rows (no header).
  [[nodiscard]] std::string csv() const;

 private:
  std::vector<Point> points_;
};

}  // namespace st::sim
