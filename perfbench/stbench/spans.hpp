// In-memory spans recorded by the benchmark around its calls into the
// program's layers (the program itself carries no span hooks yet).
//
// A span has a name, start and end on the steady clock, the index of the
// span that caused it (-1 for a root), and a shared id grouping the spans
// of one UE or one job. Spans stay in memory during the run and are
// written out once, at the end, as JSON lines.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stbench/harness.hpp"

namespace stbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t group = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Nanoseconds since the recorder was created.
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  /// Record a finished span; returns its index (a parent handle).
  /// Thread-safe.
  std::int64_t add(Span span);

  /// Open a span starting now; its index can parent spans recorded
  /// before end() closes it. Thread-safe.
  std::int64_t begin(std::string name, std::int64_t parent = -1,
                     std::uint64_t group = 0);
  void end(std::int64_t index);

  [[nodiscard]] std::size_t size() const;

  /// Write every span as one JSON object per line. False on I/O failure.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Records one span covering its own lifetime (nothing when the recorder
/// is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name,
             std::int64_t parent = -1, std::uint64_t group = 0)
      : recorder_(recorder),
        index_(recorder != nullptr
                   ? recorder->begin(std::move(name), parent, group)
                   : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->end(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t index() const noexcept { return index_; }

 private:
  SpanRecorder* recorder_;
  std::int64_t index_;
};

}  // namespace stbench
