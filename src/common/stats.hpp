// Descriptive statistics used by the benchmark harness and metric layer:
// streaming mean/min/max, exact percentiles over stored samples,
// log-linear histograms, and normal-approximation confidence intervals for
// success rates. The bench binaries report mean / p50 / p95 like the
// paper's latency plots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace st {

/// Streaming mean / min / max without storing samples.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample container with exact order statistics. Keeps every sample; fine
/// for our experiment sizes (at most a few hundred thousand points).
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_valid_ = false;
  }
  void add_all(std::span<const double> xs);

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;

  /// Exact percentile by linear interpolation between closest ranks.
  /// `p` in [0, 100]. Precondition: not empty.
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] std::span<const double> samples() const noexcept {
    return samples_;
  }

 private:
  /// Sorted lazily, cached until the next add.
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Success counter with a Wilson-score 95% confidence interval — the right
/// interval for the small trial counts of per-scenario handover success.
class SuccessRate {
 public:
  void record(bool success) noexcept;

  [[nodiscard]] std::size_t trials() const noexcept { return trials_; }
  [[nodiscard]] std::size_t successes() const noexcept { return successes_; }
  /// Fraction in [0,1]; 0 when no trials.
  [[nodiscard]] double rate() const noexcept;
  /// Wilson 95% interval [lo, hi] in [0,1].
  [[nodiscard]] std::pair<double, double> wilson95() const noexcept;

 private:
  std::size_t trials_ = 0;
  std::size_t successes_ = 0;
};

/// Log-linear histogram for non-negative, heavy-tailed quantities
/// (latencies, wall times): each power-of-two octave is split into
/// `sub_buckets_per_octave` linear bins, so relative resolution is
/// bounded by 1/sub_buckets across the whole dynamic range while memory
/// stays a few kilobytes regardless of sample count. This is what the
/// telemetry layer uses for p50/p95/p99 — unlike SampleSet it never
/// stores samples, so it is safe to feed from per-event hot paths.
///
/// Samples <= 0 land in a dedicated zero bin. Quantiles are approximate:
/// the returned value is the midpoint of the containing bin, clamped to
/// the exact observed [min, max].
class LogLinearHistogram {
 public:
  explicit LogLinearHistogram(unsigned sub_buckets_per_octave = 16);

  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
  }
  [[nodiscard]] double min() const noexcept { return total_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return total_ == 0 ? 0.0 : max_; }

  /// Approximate quantile, `q` in [0, 1] (0.5 = median). 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p95() const noexcept { return quantile(0.95); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }
  [[nodiscard]] double p999() const noexcept { return quantile(0.999); }

  /// Documented accuracy contract: a non-clamped quantile is off from the
  /// exact sample by at most half a sub-bucket width relative to the
  /// bucket's octave, i.e. |est - exact| / exact <= 1 / (2 * sub).
  [[nodiscard]] double relative_error_bound() const noexcept {
    return 1.0 / (2.0 * static_cast<double>(sub_));
  }

 private:
  /// Octaves 2^-32 .. 2^63 cover sub-nanosecond to ~3e18; anything
  /// outside clamps to the edge bins.
  static constexpr int kMinExp = -32;
  static constexpr int kMaxExp = 63;

  [[nodiscard]] std::size_t bucket_index(double x) const noexcept;
  [[nodiscard]] double bucket_mid(std::size_t index) const noexcept;

  unsigned sub_;
  std::vector<std::uint64_t> counts_;  // [0] = zero bin, then octaves
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace st
