#include "mobility/trace.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/angles.hpp"

namespace st::mobility {

TracePlayback::TracePlayback(std::vector<TraceSample> samples)
    : samples_(std::move(samples)) {
  if (samples_.empty()) {
    throw std::invalid_argument("TracePlayback: trace has no samples");
  }
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    if (samples_[i].t <= samples_[i - 1].t) {
      throw std::invalid_argument(
          "TracePlayback: sample times must be strictly increasing");
    }
  }
}

TracePlayback TracePlayback::from_csv(std::istream& in) {
  std::vector<TraceSample> samples;
  std::string line;
  bool first_content_line = true;
  while (std::getline(in, line)) {
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') {
      continue;
    }
    double t_s = 0.0;
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;
    double yaw_deg = 0.0;
    const int fields = std::sscanf(line.c_str(), "%lf,%lf,%lf,%lf,%lf", &t_s,
                                   &x, &y, &z, &yaw_deg);
    if (fields != 5) {
      if (first_content_line) {
        first_content_line = false;  // tolerate one header row
        continue;
      }
      throw std::invalid_argument("TracePlayback: malformed CSV row: " + line);
    }
    first_content_line = false;
    TraceSample s;
    s.t = sim::Time::from_ns(static_cast<std::int64_t>(t_s * 1e9));
    s.position = {x, y, z};
    s.yaw_rad = deg_to_rad(yaw_deg);
    samples.push_back(s);
  }
  return TracePlayback(std::move(samples));
}

TracePlayback TracePlayback::from_csv_text(const std::string& text) {
  std::istringstream iss(text);
  return from_csv(iss);
}

std::size_t TracePlayback::segment_for(sim::Time t) const noexcept {
  if (t <= samples_.front().t) {
    return 0;
  }
  // Binary search for the last sample at or before t.
  std::size_t lo = 0;
  std::size_t hi = samples_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (samples_[mid].t <= t) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

Pose TracePlayback::pose_at(sim::Time t) const {
  Pose pose;
  if (t <= samples_.front().t) {
    pose.position = samples_.front().position;
    pose.orientation = Quaternion::from_yaw(samples_.front().yaw_rad);
    return pose;
  }
  if (t >= samples_.back().t) {
    pose.position = samples_.back().position;
    pose.orientation = Quaternion::from_yaw(samples_.back().yaw_rad);
    return pose;
  }
  const std::size_t i = segment_for(t);
  const TraceSample& a = samples_[i];
  const TraceSample& b = samples_[i + 1];
  const double span = (b.t - a.t).seconds();
  const double frac = span <= 0.0 ? 0.0 : (t - a.t).seconds() / span;
  pose.position = a.position + frac * (b.position - a.position);
  pose.orientation =
      Quaternion::from_yaw(angular_lerp(a.yaw_rad, b.yaw_rad, frac));
  return pose;
}

std::vector<TraceSample> sample_trace(const MobilityModel& model,
                                      sim::Time from, sim::Time to,
                                      sim::Duration step) {
  if (step <= sim::Duration{} || to < from) {
    throw std::invalid_argument("sample_trace: bad range or step");
  }
  std::vector<TraceSample> out;
  for (sim::Time t = from; t <= to; t = t + step) {
    const Pose pose = model.pose_at(t);
    TraceSample s;
    s.t = t;
    s.position = pose.position;
    s.yaw_rad = pose.orientation.yaw();
    out.push_back(s);
  }
  return out;
}

std::string trace_to_csv(const std::vector<TraceSample>& samples) {
  std::string out = "# t_s,x,y,z,yaw_deg\n";
  char buf[160];
  for (const TraceSample& s : samples) {
    std::snprintf(buf, sizeof(buf), "%.6f,%.6f,%.6f,%.6f,%.6f\n",
                  s.t.seconds(), s.position.x, s.position.y, s.position.z,
                  rad_to_deg(s.yaw_rad));
    out += buf;
  }
  return out;
}

}  // namespace st::mobility
