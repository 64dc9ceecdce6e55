// Trace playback: drive the simulation from a recorded pose trace instead
// of a synthetic model — the entry point for users who have measured
// trajectories (motion capture of a walking user, vehicle GPS+IMU logs).
//
// A trace is a time-ordered list of (t, position, yaw) samples; playback
// interpolates linearly between samples (positions componentwise, yaw
// along the shortest arc) and clamps outside the recorded range. A CSV
// loader is provided for the common "t_s,x,y,z,yaw_deg" format; samples
// can equally be appended programmatically.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "mobility/model.hpp"

namespace st::mobility {

struct TraceSample {
  sim::Time t;
  Vec3 position;
  double yaw_rad = 0.0;
};

class TracePlayback final : public MobilityModel {
 public:
  /// Samples must be strictly increasing in time; at least one sample.
  explicit TracePlayback(std::vector<TraceSample> samples);

  /// Parse "t_s,x,y,z,yaw_deg" rows (comments/'#' and blank lines
  /// skipped; a header row starting with a non-numeric field is
  /// tolerated). Throws std::invalid_argument on malformed rows.
  static TracePlayback from_csv(std::istream& in);
  static TracePlayback from_csv_text(const std::string& text);

  [[nodiscard]] Pose pose_at(sim::Time t) const override;

  [[nodiscard]] std::size_t sample_count() const noexcept {
    return samples_.size();
  }
  [[nodiscard]] sim::Time start_time() const noexcept {
    return samples_.front().t;
  }
  [[nodiscard]] sim::Time end_time() const noexcept {
    return samples_.back().t;
  }

 private:
  /// Index of the last sample with t <= query (clamped to valid range).
  [[nodiscard]] std::size_t segment_for(sim::Time t) const noexcept;

  std::vector<TraceSample> samples_;
};

/// Sample any mobility model into a trace (e.g. to export a synthetic
/// walk for external tools, or to freeze a model for exact replay).
[[nodiscard]] std::vector<TraceSample> sample_trace(const MobilityModel& model,
                                                    sim::Time from,
                                                    sim::Time to,
                                                    sim::Duration step);

/// Render samples as the CSV format from_csv() accepts.
[[nodiscard]] std::string trace_to_csv(const std::vector<TraceSample>& samples);

}  // namespace st::mobility
