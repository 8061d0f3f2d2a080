// Experiment driver: repeated-trial convergence measurement (Theorem 3.1)
// with decorrelated seeds, used by every bench harness and the integration
// tests.
//
// A convergence trial is the stabilization phase of a recovery trial with
// an empty fault schedule (analysis/scenario.hpp). measure_convergence
// wraps its generator and predicate into such a ScenarioSpec and runs it
// through the same pool fan-out (detail::run_trials) and shard function
// (detail::ensemble_recovery_shard) as measure_recovery, so the seeding is
// shared: derive_seed(seed_base, tag, t) per trial, configuration RNG
// seeded with stream_seed(seed, streams::kConfig) — the stream-tag
// registry, core/stream_tags.hpp. The returned ConvergenceStats —
// including the raw hitting-time vector, in trial order — is bit-identical
// to the per-trial Runner loop (kept as detail::convergence_trial, pinned
// by tests/core/ensemble_test.cpp) and identical for every thread count
// (tests/analysis/analysis_test.cpp).
//
// `gen` and `pred` are invoked concurrently from pool threads and must be
// safe to call in parallel (the stateless lambdas used by all harnesses are).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/scenario.hpp"
#include "core/rng.hpp"
#include "core/runner.hpp"
#include "core/statistics.hpp"
#include "core/stream_tags.hpp"

namespace ppsim::analysis {

struct ConvergenceStats {
  int trials = 0;
  int failures = 0;  ///< trials that did not converge within max_steps
  core::Summary steps;
  std::vector<std::uint64_t> raw;
};

namespace detail {

/// One trial of the convergence experiment on a standalone Runner; returns
/// the hitting step or Runner<P>::npos on timeout. This is the historical
/// per-trial path, kept as the byte-identity reference for
/// measure_convergence (tests/core/ensemble_test.cpp compares the two trial
/// for trial).
template <typename P, typename ConfigGen, typename Pred>
[[nodiscard]] std::uint64_t convergence_trial(
    const typename P::Params& params, ConfigGen& gen, Pred& pred,
    std::uint64_t max_steps, std::uint64_t seed_base, std::uint64_t tag,
    std::uint64_t t, std::uint64_t check_every) {
  const std::uint64_t seed = core::derive_seed(seed_base, tag, t);
  core::Xoshiro256pp cfg_rng(core::stream_seed(seed, core::streams::kConfig));
  core::Runner<P> runner(params, gen(cfg_rng), seed);
  return runner.run_until(pred, max_steps, check_every)
      .value_or(core::Runner<P>::npos);
}

}  // namespace detail

/// Run `trials` executions of protocol P from configurations produced by
/// `gen(rng)` until `pred(agents, params)` holds, collecting hitting times,
/// over `threads` workers (0 = PPSIM_THREADS / hardware concurrency).
/// Trials exceeding `max_steps` count as failures and are excluded from the
/// summary; a negative `trials` means none. `check_every` is the predicate
/// check granularity in steps (0 = every ~n): reported hitting times are
/// quantized *up* to the first check at or after the true hit, so a coarser
/// granularity trades precision for throughput.
template <typename P, typename ConfigGen, typename Pred>
[[nodiscard]] ConvergenceStats measure_convergence(
    const typename P::Params& params, ConfigGen&& gen, Pred&& pred,
    int trials, std::uint64_t max_steps, std::uint64_t seed_base,
    std::uint64_t tag, int threads = 0, std::uint64_t check_every = 0) {
  ScenarioSpec<P> spec;
  spec.initial = [&gen](const typename P::Params&, core::Xoshiro256pp& rng) {
    return gen(rng);
  };
  spec.recovered = [&pred](std::span<const typename P::State> agents,
                           const typename P::Params& p) {
    return pred(agents, p);
  };
  spec.plan.trials = trials;
  spec.plan.max_steps = max_steps;
  spec.plan.seed_base = seed_base;
  spec.plan.tag = tag;
  spec.plan.check_every = check_every;
  ConvergenceStats out;
  for (const RecoveryTrial& t : detail::run_trials(params, spec, threads)) {
    ++out.trials;
    if (t.stabilized) {
      out.raw.push_back(t.stabilize_steps);
    } else {
      ++out.failures;
    }
  }
  out.steps = core::summarize_u64(out.raw);
  return out;
}

/// One (n, statistics) point of a scaling sweep.
struct ScalingPoint {
  int n = 0;
  ConvergenceStats stats;
};

/// Step budget used by the convergence sweeps: enough for the Theta(n^3)
/// baselines at small n and the n^2 polylog protocols throughout.
[[nodiscard]] constexpr std::uint64_t sweep_budget(int n) noexcept {
  const auto n_u = static_cast<std::uint64_t>(n);
  return 40'000ULL * n_u * n_u + 50'000'000ULL;
}

/// Shared ring-size sweep driver (Theorem 3.1 / Table 1 harnesses): for each
/// n, builds params via `mk(n)`, draws configurations via `gen(params, rng)`
/// and measures convergence to `pred` with the trial-parallel engine.
/// Per-point tag is `tag_base << 32 | params.n` — collision-free for any
/// n that fits 32 bits, so sweep points stay decorrelated and reproducible
/// independent of sweep order.
template <typename P, typename MakeParams, typename ConfigGen, typename Pred>
[[nodiscard]] std::vector<ScalingPoint> measure_scaling_sweep(
    const std::vector<int>& ns, MakeParams&& mk, ConfigGen&& gen, Pred&& pred,
    int trials, std::uint64_t seed_base, std::uint64_t tag_base,
    int threads = 0, std::uint64_t check_every = 0) {
  std::vector<ScalingPoint> points;
  points.reserve(ns.size());
  for (int n : ns) {
    const auto params = mk(n);
    ScalingPoint pt;
    pt.n = params.n;
    pt.stats = measure_convergence<P>(
        params,
        [&](core::Xoshiro256pp& rng) { return gen(params, rng); }, pred,
        trials, sweep_budget(params.n), seed_base,
        (tag_base << 32) | static_cast<std::uint64_t>(params.n), threads,
        check_every);
    points.push_back(std::move(pt));
  }
  return points;
}

/// Fits median hitting time ~ c * n^e over the sweep. All-failure points
/// and zero medians cannot be fit on log-log axes; they are skipped and
/// counted in the returned PowerFit::skipped, and the fit comes back with
/// valid == false (NaN values) when fewer than two usable points remain.
[[nodiscard]] core::PowerFit fit_median_scaling(
    const std::vector<ScalingPoint>& points);

/// median / (n^2 * log2 n) — the paper's Theorem-3.1 normalization.
/// All-failure points (stats.raw empty) yield NaN, never a misleading 0;
/// check point.stats.failures for the failure count.
[[nodiscard]] double normalized_n2logn(const ScalingPoint& point);
/// median / n^2 and median / n^3 (the neighboring normalizations); same
/// NaN-on-all-failure contract.
[[nodiscard]] double normalized_n2(const ScalingPoint& point);
[[nodiscard]] double normalized_n3(const ScalingPoint& point);

}  // namespace ppsim::analysis
