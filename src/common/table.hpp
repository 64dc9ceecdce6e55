// Plain-text table rendering for the benchmark harness. Every bench binary
// prints the rows/series the corresponding paper figure reports; this
// writer keeps them aligned.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace st {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Begin a new row; subsequent cell() calls fill it left to right.
  Table& row();
  Table& cell(std::string value);
  Table& cell(const char* value);
  Table& cell(double value, int precision = 3);
  Table& cell(std::size_t value);
  Table& cell(int value);

  /// Render with box-drawing-free ASCII (pipe-separated, padded).
  [[nodiscard]] std::string ascii() const;

  /// Convenience: print the ASCII rendering with an optional title.
  void print(std::ostream& os, const std::string& title = {}) const;

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (helper shared with log lines).
[[nodiscard]] std::string format_double(double value, int precision);

}  // namespace st
