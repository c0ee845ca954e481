#include "common/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"

namespace turbo {
namespace {

TEST(StatsTest, MinMaxBasics) {
  std::vector<float> v{3.0f, -1.0f, 4.0f, 1.5f};
  const MinMax mm = min_max(v);
  EXPECT_EQ(mm.min, -1.0f);
  EXPECT_EQ(mm.max, 4.0f);
  EXPECT_EQ(mm.gap(), 5.0f);
}

TEST(StatsTest, MinMaxEmpty) {
  const MinMax mm = min_max({});
  EXPECT_EQ(mm.min, 0.0f);
  EXPECT_EQ(mm.max, 0.0f);
}

TEST(StatsTest, MeanAndStddev) {
  std::vector<float> v{2.0f, 4.0f, 4.0f, 4.0f, 5.0f, 5.0f, 7.0f, 9.0f};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);  // classic population-stddev example
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<float> v{1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
}

TEST(StatsTest, PercentileEmptyThrows) {
  EXPECT_THROW(percentile({}, 50), CheckError);
}

TEST(StatsTest, ErrorMetrics) {
  std::vector<float> a{1.0f, 2.0f, 3.0f};
  std::vector<float> b{1.0f, 2.0f, 5.0f};
  EXPECT_DOUBLE_EQ(mse(a, b), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(rmse(a, b), std::sqrt(4.0 / 3.0));
  EXPECT_DOUBLE_EQ(max_abs_error(a, b), 2.0);
}

TEST(StatsTest, RelativeError) {
  std::vector<float> a{2.0f, 0.0f};
  std::vector<float> b{1.0f, 0.0f};
  EXPECT_DOUBLE_EQ(relative_error(a, b), 1.0);  // ||a-b||=1, ||b||=1
  EXPECT_DOUBLE_EQ(relative_error(b, b), 0.0);
}

TEST(StatsTest, HistogramEntropy) {
  // Uniform over two distinct values -> ln 2; constant -> 0.
  std::vector<float> bimodal{0.0f, 0.0f, 1.0f, 1.0f};
  EXPECT_NEAR(histogram_entropy(bimodal, 2), std::log(2.0), 1e-12);
  std::vector<float> constant{3.0f, 3.0f, 3.0f};
  EXPECT_DOUBLE_EQ(histogram_entropy(constant, 8), 0.0);
}

TEST(StatsTest, ChannelMinMax) {
  MatrixF m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = -5;
  m(0, 2) = 2;
  m(1, 0) = 3;
  m(1, 1) = 5;
  m(1, 2) = 2;
  const auto mm = channel_min_max(m);
  ASSERT_EQ(mm.size(), 3u);
  EXPECT_EQ(mm[0].min, 1.0f);
  EXPECT_EQ(mm[0].max, 3.0f);
  EXPECT_EQ(mm[1].gap(), 10.0f);
  EXPECT_EQ(mm[2].gap(), 0.0f);
}

TEST(StatsTest, TokenMinMax) {
  MatrixF m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = -5;
  m(0, 2) = 2;
  m(1, 0) = 3;
  m(1, 1) = 5;
  m(1, 2) = 2;
  const auto mm = token_min_max(m);
  ASSERT_EQ(mm.size(), 2u);
  EXPECT_EQ(mm[0].gap(), 7.0f);
  EXPECT_EQ(mm[1].gap(), 3.0f);
}

TEST(StatsTest, SizeMismatchThrows) {
  std::vector<float> a{1.0f};
  std::vector<float> b{1.0f, 2.0f};
  EXPECT_THROW(mse(a, b), CheckError);
  EXPECT_THROW(relative_error(a, b), CheckError);
}

}  // namespace
}  // namespace turbo
