#include "sim/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace st::sim {

void TimeSeries::record(Time t, double value) {
  if (points_.empty() || !(t < points_.back().t)) {
    points_.push_back({t, value});
    return;
  }
  // Out-of-order insert: place after any existing points at the same
  // time so equal-time points keep their recording order.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](Time lhs, const Point& p) { return lhs < p.t; });
  points_.insert(it, {t, value});
}

double TimeSeries::value_at(Time t, double fallback) const noexcept {
  double latest = fallback;
  for (const Point& p : points_) {
    if (p.t > t) {
      break;
    }
    latest = p.value;
  }
  return latest;
}

std::string TimeSeries::csv() const {
  std::string out;
  char buf[64];
  for (const Point& p : points_) {
    std::snprintf(buf, sizeof(buf), "%.6f,%.6f\n", p.t.ms(), p.value);
    out += buf;
  }
  return out;
}

}  // namespace st::sim
