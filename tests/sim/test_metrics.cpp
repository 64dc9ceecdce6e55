#include "sim/metrics.hpp"

#include <gtest/gtest.h>

namespace st::sim {
namespace {

using namespace st::sim::literals;

TEST(TimeSeries, RecordsAndIterates) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  ts.record(Time::zero() + 1_ms, -60.0);
  ts.record(Time::zero() + 2_ms, -63.0);
  EXPECT_EQ(ts.size(), 2U);
  EXPECT_DOUBLE_EQ(ts.points()[1].value, -63.0);
}

TEST(TimeSeries, ValueAtReturnsLastAtOrBefore) {
  TimeSeries ts;
  ts.record(Time::zero() + 10_ms, 1.0);
  ts.record(Time::zero() + 20_ms, 2.0);
  EXPECT_DOUBLE_EQ(ts.value_at(Time::zero() + 5_ms, -99.0), -99.0);
  EXPECT_DOUBLE_EQ(ts.value_at(Time::zero() + 10_ms), 1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(Time::zero() + 15_ms), 1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(Time::zero() + 25_ms), 2.0);
}

TEST(TimeSeries, ValueAtOnEmptyReturnsFallback) {
  TimeSeries ts;
  EXPECT_DOUBLE_EQ(ts.value_at(Time::zero() + 5_ms), 0.0);
  EXPECT_DOUBLE_EQ(ts.value_at(Time::zero() + 5_ms, -42.0), -42.0);
}

TEST(TimeSeries, OutOfOrderRecordKeepsPointsSorted) {
  // Ordering contract: points() is always sorted by non-decreasing time,
  // even when record() is called out of order (merging off-clock series).
  TimeSeries ts;
  ts.record(Time::zero() + 30_ms, 3.0);
  ts.record(Time::zero() + 10_ms, 1.0);
  ts.record(Time::zero() + 20_ms, 2.0);
  ts.record(Time::zero() + 40_ms, 4.0);
  ASSERT_EQ(ts.size(), 4U);
  for (std::size_t i = 1; i < ts.points().size(); ++i) {
    EXPECT_LE(ts.points()[i - 1].t, ts.points()[i].t);
    EXPECT_DOUBLE_EQ(ts.points()[i].value, static_cast<double>(i + 1));
  }
  // And value_at sees the sorted view.
  EXPECT_DOUBLE_EQ(ts.value_at(Time::zero() + 25_ms), 2.0);
}

TEST(TimeSeries, DuplicateTimestampsPreserveInsertionOrder) {
  TimeSeries ts;
  ts.record(Time::zero() + 10_ms, 1.0);
  ts.record(Time::zero() + 10_ms, 2.0);
  ASSERT_EQ(ts.size(), 2U);
  // value_at returns the *last* point at or before t.
  EXPECT_DOUBLE_EQ(ts.value_at(Time::zero() + 10_ms), 2.0);
}

TEST(TimeSeries, CsvFormat) {
  TimeSeries ts;
  ts.record(Time::zero() + 1500_us, -61.25);
  const std::string csv = ts.csv();
  EXPECT_NE(csv.find("1.500000,-61.250000"), std::string::npos);
}

}  // namespace
}  // namespace st::sim
