#include "core/statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace ppsim::core {
namespace {

TEST(Summarize, BasicMoments) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Summarize, EmptyAndSingleton) {
  EXPECT_EQ(summarize({}).count, 0u);
  const std::vector<double> one{7.0};
  const Summary s = summarize(one);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 10.0);
}

TEST(FitLinear, ExactLine) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{3, 5, 7, 9};  // y = 1 + 2x
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.intercept, 1.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(FitPower, RecoversExponent) {
  std::vector<double> x, y;
  for (double n : {8.0, 16.0, 32.0, 64.0, 128.0}) {
    x.push_back(n);
    y.push_back(3.5 * n * n);  // y = 3.5 n^2
  }
  const PowerFit f = fit_power(x, y);
  EXPECT_NEAR(f.exponent, 2.0, 1e-9);
  EXPECT_NEAR(f.constant, 3.5, 1e-6);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(FitPower, RecoversNSquaredLogN) {
  // The Theorem-3.1 shape: exponent estimate must land between 2 and 2.5.
  std::vector<double> x, y;
  for (double n : {16.0, 32.0, 64.0, 128.0, 256.0, 512.0}) {
    x.push_back(n);
    y.push_back(n * n * std::log2(n));
  }
  const PowerFit f = fit_power(x, y);
  EXPECT_GT(f.exponent, 2.0);
  EXPECT_LT(f.exponent, 2.5);
}

TEST(FitPower, MarksValidFits) {
  const std::vector<double> x{2, 4, 8};
  const std::vector<double> y{4, 16, 64};
  const PowerFit f = fit_power(x, y);
  EXPECT_TRUE(f.valid);
  EXPECT_EQ(f.skipped, 0);
}

TEST(FitPower, SkipsDegeneratePointsInsteadOfNaN) {
  // Zero/negative/non-finite coordinates have no log-log image. In Release
  // builds the old assert vanished and such points silently poisoned the
  // regression with -inf; now they are skipped and counted.
  const std::vector<double> x{8, 16, 0, 32, 64, 128};
  const std::vector<double> y{3.5 * 64,   3.5 * 256, 100, 0,
                              3.5 * 4096, std::nan("")};
  const PowerFit f = fit_power(x, y);
  EXPECT_TRUE(f.valid);
  EXPECT_EQ(f.skipped, 3);
  EXPECT_NEAR(f.exponent, 2.0, 1e-9);
  EXPECT_NEAR(f.constant, 3.5, 1e-6);
}

TEST(FitPower, InvalidWhenFewerThanTwoUsablePoints) {
  const std::vector<double> x{8, 16, 32};
  const std::vector<double> y{0, 0, 100};  // only one positive median left
  const PowerFit f = fit_power(x, y);
  EXPECT_FALSE(f.valid);
  EXPECT_EQ(f.skipped, 2);
  EXPECT_TRUE(std::isnan(f.exponent));
  EXPECT_TRUE(std::isnan(f.constant));
  EXPECT_TRUE(std::isnan(f.r2));
}

TEST(FitPower, InvalidOnEmptyInput) {
  const PowerFit f = fit_power({}, {});
  EXPECT_FALSE(f.valid);
  EXPECT_EQ(f.skipped, 0);
  EXPECT_TRUE(std::isnan(f.exponent));
}

TEST(Statistics, MismatchedFitInputsThrowInEveryBuild) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6};
  EXPECT_THROW((void)fit_linear(x, y), std::invalid_argument);
  EXPECT_THROW((void)fit_power(x, y), std::invalid_argument);
  EXPECT_THROW((void)fit_linear(y, x), std::invalid_argument);
  EXPECT_THROW((void)fit_power({}, y), std::invalid_argument);
}

TEST(ChiSquare, UniformCountsScoreLow) {
  const std::vector<std::uint64_t> counts{100, 101, 99, 100};
  EXPECT_LT(chi_square_uniform(counts), 1.0);
}

TEST(ChiSquare, SkewedCountsScoreHigh) {
  const std::vector<std::uint64_t> counts{400, 0, 0, 0};
  EXPECT_GT(chi_square_uniform(counts), 100.0);
}

TEST(FormatSci, Formats) {
  EXPECT_EQ(format_sci(12345.678, 2), "1.23e+04");
}

}  // namespace
}  // namespace ppsim::core
