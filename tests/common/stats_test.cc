#include "common/stats.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dynagg {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStatTest, SingleValue) {
  RunningStat s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStatTest, KnownMoments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic example: sigma = 2
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, SampleVarianceUsesBesselCorrection) {
  RunningStat s;
  s.Add(1.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  Rng rng(42);
  RunningStat whole;
  RunningStat left;
  RunningStat right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformDouble(-10, 10);
    whole.Add(x);
    (i < 400 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat a;
  a.Add(1.0);
  a.Add(2.0);
  RunningStat empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  RunningStat b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(RunningStatTest, NumericalStabilityLargeOffset) {
  // Welford must survive values with a huge common offset.
  RunningStat s;
  for (int i = 0; i < 1000; ++i) s.Add(1e9 + (i % 2));
  EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

TEST(DeviationStatTest, EmptyIsZero) {
  DeviationStat d;
  EXPECT_EQ(d.rms(), 0.0);
}

TEST(DeviationStatTest, RmsOfKnownErrors) {
  DeviationStat d;
  d.Add(3.0, 0.0);   // error 3
  d.Add(-4.0, 0.0);  // error -4
  EXPECT_DOUBLE_EQ(d.rms(), std::sqrt((9.0 + 16.0) / 2.0));
}

TEST(DeviationStatTest, PerfectEstimatesGiveZero) {
  DeviationStat d;
  for (int i = 0; i < 10; ++i) d.Add(42.0, 42.0);
  EXPECT_EQ(d.rms(), 0.0);
}

TEST(DeviationStatTest, MatchesStdDevForCenteredEstimates) {
  // When truth is the mean of the estimates, rms deviation equals the
  // population standard deviation.
  RunningStat s;
  DeviationStat d;
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8};
  for (const double x : xs) s.Add(x);
  for (const double x : xs) d.Add(x, s.mean());
  EXPECT_NEAR(d.rms(), s.stddev(), 1e-12);
}

TEST(HistogramTest, BucketsAndCdf) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.Add(i + 0.5);
  EXPECT_EQ(h.total(), 10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(h.bucket_count(i), 1);
  const auto cdf = h.Cdf();
  EXPECT_NEAR(cdf[0], 0.1, 1e-12);
  EXPECT_NEAR(cdf[4], 0.5, 1e-12);
  EXPECT_NEAR(cdf[9], 1.0, 1e-12);
}

TEST(HistogramTest, UnderAndOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.Add(-5.0);
  h.Add(2.0);
  h.Add(0.5);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.total(), 3);
  // Underflow counts below every bucket; overflow above all of them.
  const auto cdf = h.Cdf();
  EXPECT_NEAR(cdf[3], 2.0 / 3.0, 1e-12);
}

TEST(HistogramTest, QuantileMonotone) {
  Histogram h(0.0, 100.0, 100);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) h.Add(rng.UniformDouble(0, 100));
  EXPECT_LE(h.Quantile(0.1), h.Quantile(0.5));
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.9));
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 3.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h(0.0, 1.0, 2);
  h.Add(0.1);
  h.Reset();
  EXPECT_EQ(h.total(), 0);
  EXPECT_EQ(h.bucket_count(0), 0);
}

TEST(CsvTableTest, RendersHeaderAndRows) {
  CsvTable t({"round", "rms"});
  t.AddRow({0, 25.5});
  t.AddRow({1, 12.25});
  EXPECT_EQ(t.ToCsv(), "round,rms\n0,25.5\n1,12.25\n");
  EXPECT_EQ(t.num_rows(), 2);
}

TEST(CsvTableTest, SixSignificantDigits) {
  CsvTable t({"x"});
  t.AddRow({1.23456789});
  EXPECT_EQ(t.ToCsv(), "x\n1.23457\n");
}

}  // namespace
}  // namespace dynagg
