#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace st {

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table requires at least one column");
  }
}

Table& Table::row() {
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::cell(std::string value) {
  if (rows_.empty()) {
    throw std::logic_error("Table::cell before Table::row");
  }
  if (rows_.back().size() >= headers_.size()) {
    throw std::logic_error("Table row has more cells than headers");
  }
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::cell(const char* value) { return cell(std::string(value)); }

Table& Table::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

Table& Table::cell(std::size_t value) { return cell(std::to_string(value)); }

Table& Table::cell(int value) { return cell(std::to_string(value)); }

std::string Table::ascii() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& text = c < cells.size() ? cells[c] : std::string{};
      line += ' ';
      line += text;
      line.append(widths[c] - text.size(), ' ');
      line += " |";
    }
    line += '\n';
    return line;
  };

  std::string out = render_row(headers_);
  std::string rule = "|";
  for (const std::size_t w : widths) {
    rule.append(w + 2, '-');
    rule += '|';
  }
  rule += '\n';
  out += rule;
  for (const auto& row : rows_) {
    out += render_row(row);
  }
  return out;
}

void Table::print(std::ostream& os, const std::string& title) const {
  if (!title.empty()) {
    os << title << '\n';
  }
  os << ascii();
}

}  // namespace st
