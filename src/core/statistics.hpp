// Small statistics toolkit for experiment summaries: location/dispersion
// summaries, percentiles, least-squares fits on log-log data (empirical
// scaling exponents), and a chi-square uniformity statistic for scheduler
// validation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ppsim::core {

/// Five-number-ish summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // sample standard deviation (n-1 denominator)
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double max = 0.0;
};

[[nodiscard]] Summary summarize(std::span<const double> sample);
[[nodiscard]] Summary summarize_u64(std::span<const std::uint64_t> sample);

/// Percentile with linear interpolation; q in [0, 1]. Sample need not be
/// sorted (a sorted copy is made).
[[nodiscard]] double percentile(std::span<const double> sample, double q);

/// Simple linear least squares y = a + b*x. Returns {a, b, r2}. Throws
/// std::invalid_argument, in every build type, unless x and y have the same
/// length (as does fit_power).
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};

[[nodiscard]] LinearFit fit_linear(std::span<const double> x,
                                   std::span<const double> y);

/// Fit y ~ c * x^e on log-log axes. Returns exponent e, constant c, and r2.
/// Points with a non-positive or non-finite coordinate cannot be placed on
/// log-log axes; they are skipped (counted in `skipped`) instead of silently
/// feeding NaN/-inf into the regression. When fewer than two usable points
/// remain the fit is returned clearly invalid: `valid == false` and
/// exponent/constant/r2 all NaN.
struct PowerFit {
  double exponent = 0.0;
  double constant = 0.0;
  double r2 = 0.0;
  int skipped = 0;     ///< input points excluded from the regression
  bool valid = false;  ///< false = fewer than 2 usable points, values are NaN
};

[[nodiscard]] PowerFit fit_power(std::span<const double> x,
                                 std::span<const double> y);

/// Pearson chi-square statistic for observed counts vs a uniform expectation.
/// (Degrees of freedom = counts.size() - 1.)
[[nodiscard]] double chi_square_uniform(std::span<const std::uint64_t> counts);

/// Human-readable "1.23e+06" style formatting used by the table printers.
[[nodiscard]] std::string format_sci(double v, int precision = 3);

}  // namespace ppsim::core
