#include "common/table.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace st {
namespace {

TEST(Table, AsciiAlignsColumns) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1);
  t.row().cell("b").cell(22);
  const std::string out = t.ascii();
  // Header, rule, two data rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  // All lines equally wide (aligned).
  std::istringstream iss(out);
  std::string line;
  std::size_t width = 0;
  while (std::getline(iss, line)) {
    if (width == 0) {
      width = line.size();
    }
    EXPECT_EQ(line.size(), width);
  }
}

TEST(Table, DoubleFormattingPrecision) {
  Table t({"x"});
  t.row().cell(3.14159, 2);
  EXPECT_NE(t.ascii().find("3.14"), std::string::npos);
  EXPECT_EQ(t.ascii().find("3.142"), std::string::npos);
}

TEST(Table, CellBeforeRowThrows) {
  Table t({"x"});
  EXPECT_THROW(t.cell("oops"), std::logic_error);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"only"});
  t.row().cell("ok");
  EXPECT_THROW(t.cell("overflow"), std::logic_error);
}

TEST(Table, EmptyHeadersThrow) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, ShortRowRendersBlankCells) {
  Table t({"a", "b"});
  t.row().cell("x");  // second cell missing
  EXPECT_EQ(t.row_count(), 1U);
  EXPECT_NO_THROW((void)t.ascii());
}

TEST(Table, PrintIncludesTitle) {
  Table t({"h"});
  t.row().cell("v");
  std::ostringstream oss;
  t.print(oss, "My Title");
  EXPECT_NE(oss.str().find("My Title"), std::string::npos);
  EXPECT_NE(oss.str().find("v"), std::string::npos);
}

TEST(FormatDouble, Rounds) {
  EXPECT_EQ(format_double(1.2345, 2), "1.23");
  EXPECT_EQ(format_double(1.235, 2), "1.24");  // round half up
  EXPECT_EQ(format_double(-0.5, 0), "-0");     // printf semantics
}

}  // namespace
}  // namespace st
