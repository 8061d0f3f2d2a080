#include "analysis/experiment.hpp"

#include <cmath>
#include <limits>

namespace ppsim::analysis {

core::PowerFit fit_median_scaling(const std::vector<ScalingPoint>& points) {
  int all_failure = 0;
  std::vector<double> x, y;
  for (const ScalingPoint& p : points) {
    if (p.stats.raw.empty()) {
      // No trial converged at this n: there is no median to fit. Counted as
      // skipped so the caller can see the sweep was degenerate rather than
      // fitting a silently truncated point set.
      ++all_failure;
      continue;
    }
    x.push_back(static_cast<double>(p.n));
    y.push_back(p.stats.steps.median);
  }
  // fit_power additionally skips zero medians (pred true at step 0 for the
  // majority of trials) — both kinds of degenerate point end up in `skipped`.
  core::PowerFit fit = core::fit_power(x, y);
  fit.skipped += all_failure;
  return fit;
}

namespace {

/// All-failure points have no hitting times at all; their Summary median of
/// 0 is an artifact of the empty sample, not a measurement. Normalizing it
/// would produce a plausible-looking 0 row, so the normalizations return NaN
/// instead (p.stats.failures carries the count).
double median_or_nan(const ScalingPoint& p) {
  return p.stats.raw.empty() ? std::numeric_limits<double>::quiet_NaN()
                             : p.stats.steps.median;
}

}  // namespace

double normalized_n2logn(const ScalingPoint& p) {
  const double n = p.n;
  return median_or_nan(p) / (n * n * std::log2(n));
}

double normalized_n2(const ScalingPoint& p) {
  const double n = p.n;
  return median_or_nan(p) / (n * n);
}

double normalized_n3(const ScalingPoint& p) {
  const double n = p.n;
  return median_or_nan(p) / (n * n * n);
}

}  // namespace ppsim::analysis
