#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace st {
namespace {

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8U);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  RunningStats left;
  RunningStats right;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double x = 0.37 * i - 3.0;
    (i % 2 == 0 ? left : right).add(x);
    all.add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  RunningStats empty;
  s.merge(empty);
  EXPECT_EQ(s.count(), 2U);
  empty.merge(s);
  EXPECT_EQ(empty.count(), 2U);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(SampleSet, PercentilesExact) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.percentile(95.0), 95.05, 1e-9);
}

TEST(SampleSet, PercentileInterpolates) {
  SampleSet s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 15.0);
  EXPECT_DOUBLE_EQ(s.percentile(25.0), 12.5);
}

TEST(SampleSet, PercentileOnEmptyThrows) {
  SampleSet s;
  EXPECT_THROW((void)s.percentile(50.0), std::logic_error);
}

TEST(SampleSet, PercentileClampsOutOfRangeP) {
  SampleSet s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.percentile(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(150.0), 2.0);
}

TEST(SampleSet, AddAfterPercentileInvalidatesCache) {
  SampleSet s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(100.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(SampleSet, AddAllAndSummary) {
  SampleSet s;
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  s.add_all(xs);
  EXPECT_EQ(s.count(), 4U);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(SuccessRate, RateAndCounts) {
  SuccessRate r;
  r.record(true);
  r.record(true);
  r.record(false);
  r.record(true);
  EXPECT_EQ(r.trials(), 4U);
  EXPECT_EQ(r.successes(), 3U);
  EXPECT_DOUBLE_EQ(r.rate(), 0.75);
}

TEST(SuccessRate, WilsonIntervalContainsRate) {
  SuccessRate r;
  for (int i = 0; i < 80; ++i) {
    r.record(i % 4 != 0);  // 75%
  }
  const auto [lo, hi] = r.wilson95();
  EXPECT_LT(lo, 0.75);
  EXPECT_GT(hi, 0.75);
  EXPECT_GE(lo, 0.0);
  EXPECT_LE(hi, 1.0);
}

TEST(SuccessRate, WilsonHandlesExtremes) {
  SuccessRate all;
  for (int i = 0; i < 20; ++i) {
    all.record(true);
  }
  const auto [lo, hi] = all.wilson95();
  EXPECT_LT(lo, 1.0);  // never certain from finite trials
  EXPECT_DOUBLE_EQ(hi, 1.0);

  SuccessRate none;
  EXPECT_EQ(none.wilson95().first, 0.0);
  EXPECT_EQ(none.wilson95().second, 1.0);
}

TEST(LogLinearHistogram, EmptyReturnsZeros) {
  LogLinearHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0U);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(LogLinearHistogram, CountSumMeanMinMaxAreExact) {
  LogLinearHistogram h;
  for (const double x : {2.0, 4.0, 4.0, 5.0, 9.0}) {
    h.add(x);
  }
  EXPECT_EQ(h.count(), 5U);
  EXPECT_DOUBLE_EQ(h.sum(), 24.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.8);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(LogLinearHistogram, QuantilesApproximateWithinBinResolution) {
  LogLinearHistogram h;  // 16 sub-buckets/octave: <= ~4.5% relative error
  for (int i = 1; i <= 1000; ++i) {
    h.add(static_cast<double>(i));
  }
  EXPECT_NEAR(h.p50(), 500.0, 500.0 * 0.05);
  EXPECT_NEAR(h.p95(), 950.0, 950.0 * 0.05);
  EXPECT_NEAR(h.p99(), 990.0, 990.0 * 0.05);
  EXPECT_LE(h.quantile(0.0), h.p50());
  EXPECT_LE(h.p50(), h.p95());
  EXPECT_LE(h.p95(), h.p99());
}

TEST(LogLinearHistogram, QuantilesClampToObservedRange) {
  LogLinearHistogram h;
  h.add(7.3);
  // A one-sample histogram must report that sample for every quantile —
  // the bin midpoint is clamped to the exact observed [min, max].
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 7.3);
  EXPECT_DOUBLE_EQ(h.p50(), 7.3);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 7.3);
}

TEST(LogLinearHistogram, ZeroAndNegativeSamplesLandInZeroBin) {
  LogLinearHistogram h;
  h.add(0.0);
  h.add(-5.0);
  h.add(10.0);
  EXPECT_EQ(h.count(), 3U);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  // Two of three samples are in the zero bin, so the median is <= 0.
  EXPECT_LE(h.p50(), 0.0);
}

}  // namespace
}  // namespace st
