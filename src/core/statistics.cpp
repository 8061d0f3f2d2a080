#include "core/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace ppsim::core {

namespace {

/// Release-build shape check of a fit's inputs: a y shorter than x would
/// otherwise be read past its end.
void require_paired(std::span<const double> x, std::span<const double> y,
                    const char* fit) {
  if (x.size() != y.size())
    throw std::invalid_argument(std::string(fit) + ": x has " +
                                std::to_string(x.size()) + " points, y has " +
                                std::to_string(y.size()));
}

double interp_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

Summary summarize(std::span<const double> sample) {
  Summary s;
  s.count = sample.size();
  if (sample.empty()) return s;
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.mean = std::accumulate(sorted.begin(), sorted.end(), 0.0) /
           static_cast<double>(sorted.size());
  double ss = 0.0;
  for (double v : sorted) ss += (v - s.mean) * (v - s.mean);
  s.stddev = sorted.size() > 1
                 ? std::sqrt(ss / static_cast<double>(sorted.size() - 1))
                 : 0.0;
  s.p25 = interp_percentile(sorted, 0.25);
  s.median = interp_percentile(sorted, 0.50);
  s.p75 = interp_percentile(sorted, 0.75);
  s.p90 = interp_percentile(sorted, 0.90);
  return s;
}

Summary summarize_u64(std::span<const std::uint64_t> sample) {
  std::vector<double> d(sample.size());
  std::transform(sample.begin(), sample.end(), d.begin(),
                 [](std::uint64_t v) { return static_cast<double>(v); });
  return summarize(d);
}

double percentile(std::span<const double> sample, double q) {
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  return interp_percentile(sorted, q);
}

LinearFit fit_linear(std::span<const double> x, std::span<const double> y) {
  require_paired(x, y, "fit_linear");
  LinearFit f;
  const auto n = static_cast<double>(x.size());
  if (x.size() < 2) return f;
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) return f;
  f.slope = (n * sxy - sx * sy) / denom;
  f.intercept = (sy - f.slope * sx) / n;
  const double sst = syy - sy * sy / n;
  double sse = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = y[i] - (f.intercept + f.slope * x[i]);
    sse += e * e;
  }
  f.r2 = sst > 0 ? 1.0 - sse / sst : 1.0;
  return f;
}

PowerFit fit_power(std::span<const double> x, std::span<const double> y) {
  require_paired(x, y, "fit_power");
  PowerFit p;
  std::vector<double> lx, ly;
  lx.reserve(x.size());
  ly.reserve(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    // `!(v > 0)` also rejects NaN; isfinite rejects +inf coordinates.
    if (!(x[i] > 0.0) || !(y[i] > 0.0) || !std::isfinite(x[i]) ||
        !std::isfinite(y[i])) {
      ++p.skipped;
      continue;
    }
    lx.push_back(std::log(x[i]));
    ly.push_back(std::log(y[i]));
  }
  if (lx.size() < 2) {
    p.exponent = p.constant = p.r2 =
        std::numeric_limits<double>::quiet_NaN();
    return p;
  }
  const LinearFit lin = fit_linear(lx, ly);
  p.exponent = lin.slope;
  p.constant = std::exp(lin.intercept);
  p.r2 = lin.r2;
  p.valid = true;
  return p;
}

double chi_square_uniform(std::span<const std::uint64_t> counts) {
  if (counts.empty()) return 0.0;
  const std::uint64_t total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  const double expected =
      static_cast<double>(total) / static_cast<double>(counts.size());
  if (expected <= 0.0) return 0.0;
  double chi = 0.0;
  for (std::uint64_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi += d * d / expected;
  }
  return chi;
}

std::string format_sci(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", precision, v);
  return buf;
}

}  // namespace ppsim::core
