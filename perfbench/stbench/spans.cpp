#include "stbench/spans.hpp"

#include <fstream>

namespace stbench {

std::int64_t SpanRecorder::add(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::size_t SpanRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::int64_t SpanRecorder::begin(std::string name, std::int64_t parent,
                                 std::uint64_t group) {
  const std::int64_t start = now_ns();
  return add({std::move(name), start, start, parent, group});
}

void SpanRecorder::end(std::int64_t index) {
  const std::int64_t stop = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(index)).end_ns = stop;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"i\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"group\": " << s.group
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace stbench
