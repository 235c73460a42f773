#include <gtest/gtest.h>

#include "stats/descriptive.hpp"
#include "util/check.hpp"

namespace hoval {
namespace {

TEST(RunningStats, EmptyDefaults) {
  const RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats stats;
  stats.add(4.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 4.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 4.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, SummaryString) {
  RunningStats stats;
  stats.add(1.0);
  stats.add(3.0);
  const auto s = stats.summary(1);
  EXPECT_NE(s.find("2.0"), std::string::npos);
  EXPECT_NE(s.find("(2)"), std::string::npos);
}

TEST(SampleSet, QuantilesExact) {
  SampleSet samples;
  for (double x : {5.0, 1.0, 3.0, 2.0, 4.0}) samples.add(x);
  EXPECT_DOUBLE_EQ(samples.min(), 1.0);
  EXPECT_DOUBLE_EQ(samples.max(), 5.0);
  EXPECT_DOUBLE_EQ(samples.median(), 3.0);
  EXPECT_DOUBLE_EQ(samples.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(samples.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(samples.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(samples.mean(), 3.0);
}

TEST(SampleSet, InterpolatedQuantile) {
  SampleSet samples;
  samples.add(0.0);
  samples.add(10.0);
  EXPECT_DOUBLE_EQ(samples.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(samples.quantile(0.1), 1.0);
}

TEST(SampleSet, AddAfterQuantileKeepsCorrectness) {
  SampleSet samples;
  samples.add(2.0);
  EXPECT_DOUBLE_EQ(samples.median(), 2.0);
  samples.add(1.0);
  samples.add(3.0);
  EXPECT_DOUBLE_EQ(samples.median(), 2.0);
  EXPECT_DOUBLE_EQ(samples.min(), 1.0);
}

TEST(SampleSet, EmptyThrows) {
  const SampleSet samples;
  EXPECT_TRUE(samples.empty());
  EXPECT_THROW((void)samples.mean(), PreconditionError);
  EXPECT_THROW((void)samples.quantile(0.5), PreconditionError);
}

TEST(SampleSet, BadQuantileThrows) {
  SampleSet samples;
  samples.add(1.0);
  EXPECT_THROW((void)samples.quantile(-0.1), PreconditionError);
  EXPECT_THROW((void)samples.quantile(1.1), PreconditionError);
}

}  // namespace
}  // namespace hoval
