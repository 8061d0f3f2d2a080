// The safe-set declaration of the campaign path
// (ScenarioSpec::recovered_is_safe_set): the census gate it implies holds
// for every study protocol, the declared ensemble driver (census-gated,
// and checked on the packed words on P_PL's word lane) reproduces the
// undeclared State-checked shard and the per-trial reference trial for
// trial on the word, LUT and generic lanes, hand-built specs reach their
// callback at every check, and the declaration is refused for a protocol
// without a leader census.
#include "analysis/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/adversary.hpp"
#include "baselines/fischer_jiang.hpp"
#include "baselines/modk.hpp"
#include "baselines/yokota28.hpp"
#include "core/rng.hpp"
#include "pl/protocol.hpp"
#include "verification/toys.hpp"

namespace ppsim::analysis {
namespace {

template <typename P>
int census(std::span<const typename P::State> c,
           const typename P::Params& p) {
  int k = 0;
  for (const auto& s : c) k += P::is_leader(s, p) ? 1 : 0;
  return k;
}

/// recovered(c) => census(c) == 1, on safe configurations with a leader
/// added at every other agent, with the leader removed, and on random
/// configurations.
template <typename P>
void expect_safe_set_implies_unique_leader(const typename P::Params& p) {
  core::Xoshiro256pp rng(99);
  for (int rep = 0; rep < 4; ++rep) {
    auto c = Adversary<P>::safe_config(p, rng);
    ASSERT_TRUE(Adversary<P>::recovered(c, p));
    ASSERT_EQ(census<P>(c, p), 1);
    for (std::size_t i = 0; i < c.size(); ++i) {
      auto d = c;
      d[i].leader = d[i].leader == 1 ? 0 : 1;  // remove it, or add a second
      EXPECT_NE(census<P>(d, p), 1);
      EXPECT_FALSE(Adversary<P>::recovered(d, p)) << "agent " << i;
      for (std::size_t j = i + 1; j < c.size(); j += 3) {
        auto e = d;
        e[j].leader = 1;
        if (census<P>(e, p) != 1) {
          EXPECT_FALSE(Adversary<P>::recovered(e, p)) << i << "," << j;
        }
      }
    }
  }
  for (int t = 0; t < 500; ++t) {
    const auto c = Adversary<P>::random_config(p, rng);
    if (Adversary<P>::recovered(c, p)) {
      EXPECT_EQ(census<P>(c, p), 1);
    }
  }
  const auto spec = make_recovery_scenario<P>("burst", burst_schedule(1), {});
  EXPECT_TRUE(spec.recovered_is_safe_set);
}

TEST(CensusGate, RecoveredImpliesUniqueLeaderForEveryStudyProtocol) {
  expect_safe_set_implies_unique_leader<pl::PlProtocol>(
      pl::PlParams::make(16, 4));
  expect_safe_set_implies_unique_leader<baselines::FischerJiang>(
      baselines::FjParams::make(12));
  expect_safe_set_implies_unique_leader<baselines::Modk>(
      baselines::ModkParams::make(13, 2));
  expect_safe_set_implies_unique_leader<baselines::Yokota28>(
      baselines::Y28Params::make(10));
}

/// ensemble_recovery_shard with the safe-set declaration against
/// recovery_trial (which always calls `recovered` on States), and against
/// the same shard without the declaration (State-checked at every block).
template <typename P>
void expect_shard_matches_reference(const typename P::Params& p,
                                    ScenarioSpec<P> spec) {
  ASSERT_TRUE(spec.recovered_is_safe_set);
  const auto count = static_cast<std::size_t>(spec.plan.trials);
  std::vector<RecoveryTrial> gated(count), ungated(count);
  detail::ensemble_recovery_shard<P>(p, spec, 0, count, gated);
  auto plain = spec;
  plain.recovered_is_safe_set = false;
  detail::ensemble_recovery_shard<P>(p, plain, 0, count, ungated);
  int healed = 0;
  for (std::size_t t = 0; t < count; ++t) {
    const RecoveryTrial want = detail::recovery_trial<P>(p, spec, t);
    for (const RecoveryTrial* got : {&gated[t], &ungated[t]}) {
      EXPECT_EQ(got->stabilized, want.stabilized) << "trial " << t;
      EXPECT_EQ(got->healed, want.healed) << "trial " << t;
      EXPECT_EQ(got->stabilize_steps, want.stabilize_steps) << "trial " << t;
      EXPECT_EQ(got->recovery_steps, want.recovery_steps) << "trial " << t;
    }
    healed += want.healed ? 1 : 0;
  }
  EXPECT_GT(healed, 0);
}

TrialPlan small_plan(std::int64_t trials, std::uint64_t tag) {
  TrialPlan plan;
  plan.trials = trials;
  plan.max_steps = 50'000'000;
  plan.seed_base = 17;
  plan.tag = tag;
  return plan;
}

TEST(CensusGate, WordCheckedShardMatchesReferenceOnWordLane) {
  // The declared shard checks S_PL on the packed words (pl::is_safe_words);
  // the undeclared one unpacks and calls `recovered` at every block. Trial
  // counts leave a padded partial lockstep group at every n.
  for (int n : {16, 64, 256}) {
    const auto p = pl::PlParams::make(n, 4);
    const std::int64_t trials = n == 16 ? 13 : 6;
    for (int faults : {1, n / 4}) {
      expect_shard_matches_reference<pl::PlProtocol>(
          p, make_recovery_scenario<pl::PlProtocol>(
                 "burst", burst_schedule(faults),
                 small_plan(trials, campaign_tag(1, n, faults))));
      expect_shard_matches_reference<pl::PlProtocol>(
          p, make_recovery_scenario<pl::PlProtocol>(
                 "storm",
                 storm_schedule(faults, static_cast<std::uint64_t>(n)),
                 small_plan(trials, campaign_tag(2, n, faults))));
    }
  }
}

TEST(CensusGate, GatedShardMatchesReferenceOnGenericLane) {
  const auto p = pl::PlParams::make(16, 4);
  auto spec = make_recovery_scenario<pl::PlProtocol>(
      "burst", burst_schedule(4), small_plan(10, campaign_tag(3, 16, 4)));
  spec.sched_faults.loss_p = 0.1;  // forces the generic ensemble lane
  expect_shard_matches_reference<pl::PlProtocol>(p, spec);
}

TEST(CensusGate, GatedShardMatchesReferenceOnBaselines) {
  expect_shard_matches_reference<baselines::Modk>(
      baselines::ModkParams::make(13, 2),
      make_recovery_scenario<baselines::Modk>(
          "storm", storm_schedule(2, 13), small_plan(10, 41)));
  expect_shard_matches_reference<baselines::Yokota28>(
      baselines::Y28Params::make(10),
      make_recovery_scenario<baselines::Yokota28>(
          "burst", burst_schedule(2), small_plan(8, 42)));
  expect_shard_matches_reference<baselines::FischerJiang>(
      baselines::FjParams::make(12),
      make_recovery_scenario<baselines::FischerJiang>(
          "burst", burst_schedule(2), small_plan(8, 43)));
}

/// Calls of `recovered` by `trials` per-trial reference runs and by one
/// ensemble shard of the same spec.
struct CallCounts {
  std::int64_t reference = 0;
  std::int64_t shard = 0;
};

CallCounts count_recovered_calls(const pl::PlParams& p,
                                 ScenarioSpec<pl::PlProtocol> spec) {
  std::int64_t calls = 0;
  spec.recovered = [&calls, f = spec.recovered](
                       std::span<const pl::PlState> c,
                       const pl::PlParams& pp) {
    ++calls;
    return f(c, pp);
  };
  const auto trials = static_cast<std::size_t>(spec.plan.trials);
  for (std::uint64_t t = 0; t < trials; ++t)
    (void)detail::recovery_trial<pl::PlProtocol>(p, spec, t);
  CallCounts out;
  out.reference = calls;
  std::vector<RecoveryTrial> shard(trials);
  calls = 0;
  detail::ensemble_recovery_shard<pl::PlProtocol>(p, spec, 0, trials, shard);
  out.shard = calls;
  return out;
}

TEST(CensusGate, HandBuiltSpecCallsRecoveredAtEveryCheck) {
  // Same spec as make_recovery_scenario but hand-built: the declaration
  // defaults to false, so the ensemble must call `recovered` exactly as
  // often as the per-trial Runner::run_until path does, on the word lane
  // and on the generic lane alike.
  const auto p = pl::PlParams::make(16, 4);
  const auto base = make_recovery_scenario<pl::PlProtocol>(
      "burst", burst_schedule(4), small_plan(8, campaign_tag(4, 16, 4)));
  ScenarioSpec<pl::PlProtocol> spec;
  spec.name = base.name;
  spec.initial = base.initial;
  spec.schedule = base.schedule;
  spec.inject = base.inject;
  spec.plan = base.plan;
  spec.recovered = base.recovered;
  ASSERT_FALSE(spec.recovered_is_safe_set);
  ScenarioSpec<pl::PlProtocol> lossy = spec;
  lossy.sched_faults.loss_p = 0.1;  // forces the generic ensemble lane

  const CallCounts word = count_recovered_calls(p, spec);
  EXPECT_EQ(word.shard, word.reference);
  EXPECT_GT(word.shard, 0);
  const CallCounts generic = count_recovered_calls(p, lossy);
  EXPECT_EQ(generic.shard, generic.reference);

  // Declared on the word lane, every check reads the packed words:
  // `recovered` is never called.
  spec.recovered_is_safe_set = true;
  EXPECT_EQ(count_recovered_calls(p, spec).shard, 0);
  // Declared on the generic lane, only the census gate applies: every
  // check of a ring whose census is not 1 is skipped (a 4-agent burst
  // leaves several leaders for a while), the others call `recovered`.
  lossy.recovered_is_safe_set = true;
  const CallCounts gated = count_recovered_calls(p, lossy);
  EXPECT_LT(gated.shard, generic.reference);
  EXPECT_GT(gated.shard, 0);
}

TEST(CensusGate, DeclarationRefusedWithoutLeaderCensus) {
  using verification::TokenMergeModel;
  ScenarioSpec<TokenMergeModel> spec;
  spec.name = "toy";
  spec.initial = [](const TokenMergeModel::Params& p, core::Xoshiro256pp&) {
    std::vector<TokenMergeModel::State> c(static_cast<std::size_t>(p.n));
    c[0].tok = 1;
    return c;
  };
  spec.inject = [](core::RingView<TokenMergeModel>, int,
                   core::Xoshiro256pp&) {};
  spec.recovered = [](std::span<const TokenMergeModel::State> c,
                      const TokenMergeModel::Params&) {
    return TokenMergeModel::count_tokens(c) == 1;
  };
  spec.plan = small_plan(2, 5);
  const TokenMergeModel::Params p{6};
  EXPECT_NO_THROW(validate_spec(p, spec));
  EXPECT_NO_THROW((void)measure_recovery<TokenMergeModel>(p, spec));
  spec.recovered_is_safe_set = true;
  EXPECT_THROW(validate_spec(p, spec), std::invalid_argument);
  EXPECT_THROW((void)measure_recovery<TokenMergeModel>(p, spec),
               std::invalid_argument);
  core::Xoshiro256pp rng(1);
  core::EnsembleRunner<TokenMergeModel> ens(p);
  ens.add_ring(spec.initial(p, rng), 1);
  EXPECT_THROW((void)ens.run_until_each(spec.recovered, 100, 0, true),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppsim::analysis
