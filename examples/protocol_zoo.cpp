// Protocol zoo: run all four runnable SS-LE protocols on comparable rings
// from random configurations and print a side-by-side summary — a miniature
// live version of Table 1.
//
//   $ ./protocol_zoo [n] [trials]
#include <cstdio>
#include <iostream>

#include "analysis/experiment.hpp"
#include "analysis/scaling.hpp"
#include "baselines/fischer_jiang.hpp"
#include "baselines/modk.hpp"
#include "baselines/yokota28.hpp"
#include "core/env.hpp"
#include "core/table.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"

int main(int argc, char** argv) {
  using namespace ppsim;
  const int n = argc > 1 ? core::parse_int("n", argv[1]) : 64;
  const int trials = argc > 2 ? core::parse_int("trials", argv[2]) : 5;
  const std::uint64_t budget =
      200'000ULL * static_cast<std::uint64_t>(n) *
          static_cast<std::uint64_t>(n) +
      100'000'000ULL;

  core::Table t({"protocol", "assumption", "median steps", "mean", "#states/agent"});

  {
    const auto p = pl::PlParams::make(n, 4);
    const auto r = analysis::measure_convergence<pl::PlProtocol>(
        p, [&](core::Xoshiro256pp& rng) { return pl::random_config(p, rng); },
        pl::SafePredicate{}, trials, budget, 1, 1);
    t.add_row({"P_PL (this paper)", "psi knowledge",
               core::fmt_double(r.steps.median, 4),
               core::fmt_double(r.steps.mean, 4),
               analysis::format_state_count(analysis::pl_state_count(p))});
  }
  {
    const auto p = baselines::Y28Params::make(n);
    const auto r = analysis::measure_convergence<baselines::Yokota28>(
        p,
        [&](core::Xoshiro256pp& rng) {
          return baselines::y28_random_config(p, rng);
        },
        [](std::span<const baselines::Y28State> c,
           const baselines::Y28Params& pp) {
          return baselines::y28_is_safe(c, pp);
        },
        trials, budget, 1, 2);
    t.add_row({"Yokota et al. [28]", "psi knowledge",
               core::fmt_double(r.steps.median, 4),
               core::fmt_double(r.steps.mean, 4),
               analysis::format_state_count(analysis::y28_state_count(n))});
  }
  {
    const auto p = baselines::FjParams::make(n);
    const auto r = analysis::measure_convergence<baselines::FischerJiang>(
        p,
        [&](core::Xoshiro256pp& rng) {
          return baselines::fj_random_config(p, rng);
        },
        [](std::span<const baselines::FjState> c,
           const baselines::FjParams& pp) {
          return baselines::fj_is_safe(c, pp);
        },
        trials, budget, 1, 3);
    t.add_row({"Fischer-Jiang [15]", "oracle Omega?",
               core::fmt_double(r.steps.median, 4),
               core::fmt_double(r.steps.mean, 4),
               analysis::format_state_count(analysis::fj_state_count())});
  }
  {
    const int n_odd = n % 2 == 0 ? n + 1 : n;
    const auto p = baselines::ModkParams::make(n_odd, 2);
    const auto r = analysis::measure_convergence<baselines::Modk>(
        p,
        [&](core::Xoshiro256pp& rng) {
          return baselines::modk_random_config(p, rng);
        },
        [](std::span<const baselines::ModkState> c,
           const baselines::ModkParams& pp) {
          return baselines::modk_is_safe(c, pp);
        },
        trials, budget, 1, 4);
    t.add_row({"AAFJ-style modk [5]", "n not multiple of k",
               core::fmt_double(r.steps.median, 4),
               core::fmt_double(r.steps.mean, 4),
               analysis::format_state_count(analysis::modk_state_count(2))});
  }

  std::printf("SS-LE protocol zoo, n = %d, %d trials each, random initial "
              "configurations\n(Chen-Chen [11] is represented by its "
              "Thue-Morse substrate: see tm_cube_demo)\n\n", n, trials);
  t.print(std::cout);
  return 0;
}
