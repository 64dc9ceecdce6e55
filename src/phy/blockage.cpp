#include "phy/blockage.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace st::phy {

BlockageProcess::BlockageProcess(const BlockageConfig& config,
                                 sim::Duration horizon, std::uint64_t seed) {
  if (config.rate_per_s < 0.0 || config.mean_duration_s < 0.0 ||
      config.ramp_s < 0.0) {
    throw std::invalid_argument("BlockageProcess: negative config value");
  }
  if (config.rate_per_s == 0.0) {
    return;
  }
  Rng rng(seed);
  const double mean_gap_s = 1.0 / config.rate_per_s;
  double t_s = rng.exponential(mean_gap_s);
  while (t_s < horizon.seconds()) {
    Event e;
    e.onset = sim::Time::from_ns(static_cast<std::int64_t>(t_s * 1e9));
    e.flat = sim::Duration::seconds_of(
        std::max(0.0, rng.exponential(config.mean_duration_s)));
    e.ramp = sim::Duration::seconds_of(config.ramp_s);
    e.attenuation_db = std::max(
        0.0, rng.normal(config.mean_attenuation_db, config.attenuation_sigma_db));
    events_.push_back(e);
    t_s += (e.flat + 2 * e.ramp).seconds() + rng.exponential(mean_gap_s);
  }
}

double BlockageProcess::attenuation_db(sim::Time t) const noexcept {
  double total = 0.0;
  for (const Event& e : events_) {
    if (t < e.onset) {
      break;  // events are onset-ordered and non-overlapping
    }
    const sim::Time full_at = e.onset + e.ramp;
    const sim::Time fall_at = full_at + e.flat;
    const sim::Time end_at = fall_at + e.ramp;
    if (t >= end_at) {
      continue;
    }
    if (t < full_at) {
      const double frac = (t - e.onset).seconds() / e.ramp.seconds();
      total += e.attenuation_db * frac;
    } else if (t < fall_at) {
      total += e.attenuation_db;
    } else {
      const double frac = (t - fall_at).seconds() / e.ramp.seconds();
      total += e.attenuation_db * (1.0 - frac);
    }
  }
  return total;
}

BlockageWindow BlockageProcess::window(sim::Time t) const noexcept {
  constexpr std::int64_t kMinNs = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMaxNs = std::numeric_limits<std::int64_t>::max();
  sim::Time clear_since = sim::Time::from_ns(kMinNs);
  for (const Event& e : events_) {
    if (t < e.onset) {
      return {0.0, clear_since, e.onset};  // in the gap before this event
    }
    const sim::Time full_at = e.onset + e.ramp;
    const sim::Time fall_at = full_at + e.flat;
    const sim::Time end_at = fall_at + e.ramp;
    if (t >= end_at) {
      clear_since = end_at;
      continue;
    }
    if (t >= full_at && t < fall_at) {
      return {e.attenuation_db, full_at, fall_at};  // flat phase
    }
    // On a rising or falling ramp the value changes every nanosecond.
    return {attenuation_db(t), t, t + sim::Duration::nanoseconds(1)};
  }
  return {0.0, clear_since, sim::Time::from_ns(kMaxNs)};
}

}  // namespace st::phy
