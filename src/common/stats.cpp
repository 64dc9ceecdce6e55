#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace st {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void SampleSet::add_all(std::span<const double> xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_valid_ = false;
}

double SampleSet::mean() const noexcept {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double x : samples_) {
    sum += x;
  }
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::min() const noexcept {
  if (samples_.empty()) {
    return 0.0;
  }
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const noexcept {
  if (samples_.empty()) {
    return 0.0;
  }
  return *std::max_element(samples_.begin(), samples_.end());
}

void SampleSet::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) {
    throw std::logic_error("SampleSet::percentile on empty set");
  }
  ensure_sorted();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo_idx = static_cast<std::size_t>(std::floor(rank));
  const auto hi_idx = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return sorted_[lo_idx] + frac * (sorted_[hi_idx] - sorted_[lo_idx]);
}

void SuccessRate::record(bool success) noexcept {
  ++trials_;
  if (success) {
    ++successes_;
  }
}

double SuccessRate::rate() const noexcept {
  if (trials_ == 0) {
    return 0.0;
  }
  return static_cast<double>(successes_) / static_cast<double>(trials_);
}

std::pair<double, double> SuccessRate::wilson95() const noexcept {
  if (trials_ == 0) {
    return {0.0, 1.0};
  }
  constexpr double z = 1.959963984540054;  // 97.5th normal quantile
  const double n = static_cast<double>(trials_);
  const double p = rate();
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, centre - half), std::min(1.0, centre + half)};
}

LogLinearHistogram::LogLinearHistogram(unsigned sub_buckets_per_octave)
    : sub_(sub_buckets_per_octave) {
  if (sub_ == 0) {
    throw std::invalid_argument(
        "LogLinearHistogram: sub_buckets_per_octave must be >= 1");
  }
  counts_.assign(1 + static_cast<std::size_t>(kMaxExp - kMinExp + 1) * sub_, 0);
}

std::size_t LogLinearHistogram::bucket_index(double x) const noexcept {
  if (!(x > 0.0)) {
    return 0;  // zero bin (also catches NaN)
  }
  int exp = 0;
  const double frac = std::frexp(x, &exp);  // x = frac * 2^exp, frac in [0.5,1)
  // Rebase so the octave is [2^(exp-1), 2^exp) with frac in [0.5, 1).
  const int octave = std::clamp(exp - 1, kMinExp, kMaxExp);
  // Linear sub-bin inside the octave: (frac - 0.5) / 0.5 in [0, 1).
  auto sub = static_cast<std::size_t>((frac - 0.5) * 2.0 *
                                      static_cast<double>(sub_));
  sub = std::min<std::size_t>(sub, sub_ - 1);
  return 1 + static_cast<std::size_t>(octave - kMinExp) * sub_ + sub;
}

double LogLinearHistogram::bucket_mid(std::size_t index) const noexcept {
  if (index == 0) {
    return 0.0;
  }
  const std::size_t linear = index - 1;
  const int octave = kMinExp + static_cast<int>(linear / sub_);
  const auto sub = static_cast<double>(linear % sub_);
  const double lo = std::ldexp(1.0, octave);  // 2^octave
  const double width = lo / static_cast<double>(sub_);
  return lo + (sub + 0.5) * width;
}

void LogLinearHistogram::add(double x) noexcept {
  if (total_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++counts_[bucket_index(x)];
  ++total_;
  sum_ += x;
}

double LogLinearHistogram::quantile(double q) const noexcept {
  if (total_ == 0) {
    return 0.0;
  }
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample, matching SampleSet::percentile's convention
  // of interpolating over n-1 intervals (rounded to the nearest sample).
  const auto rank = static_cast<std::uint64_t>(
      clamped * static_cast<double>(total_ - 1) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > rank) {
      return std::clamp(bucket_mid(i), min_, max_);
    }
  }
  return max_;
}

}  // namespace st
