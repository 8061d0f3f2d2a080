// The word-kernel engine lanes (core::WordGroupDriver wired into
// EnsembleRunner): bit-identity against the scalar reference Runner,
// fault-storm behavior (in-domain fast path and the documented
// fall-back-to-generic on out-of-domain states), the single-ring grouped
// driver and the cross-ring lockstep lane, capacity-probe gating, and
// thread-count byte-identity of the differential campaign driver.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/ensemble.hpp"
#include "core/rng.hpp"
#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"
#include "pl/protocol.hpp"
#include "pl/safe_config.hpp"
#include "verification/differential.hpp"

namespace ppsim {
namespace {

using core::EnsembleRunner;
using core::Runner;
using pl::PlParams;
using pl::PlProtocol;
using pl::PlState;

static_assert(core::WordKernelRunnable<PlProtocol>,
              "P_PL must satisfy the word-kernel concept");
static_assert(EnsembleRunner<PlProtocol>::kWordable);
static_assert(!EnsembleRunner<PlProtocol>::kPackable,
              "P_PL's state space must be far beyond the LUT lane");

void expect_same(const Runner<PlProtocol>& a, const Runner<PlProtocol>& b,
                 const char* what) {
  ASSERT_EQ(a.steps(), b.steps()) << what;
  ASSERT_EQ(a.leader_count(), b.leader_count()) << what;
  ASSERT_EQ(a.last_leader_change(), b.last_leader_change()) << what;
  const auto sa = a.agents();
  const auto sb = b.agents();
  for (int i = 0; i < a.n(); ++i)
    ASSERT_EQ(sa[i], sb[i]) << what << " agent " << i;
}

void expect_ring_same(const Runner<PlProtocol>& ref,
                      EnsembleRunner<PlProtocol>& ens, int r,
                      const char* what) {
  ASSERT_EQ(ref.steps(), ens.steps(r)) << what;
  ASSERT_EQ(ref.leader_count(), ens.leader_count(r)) << what;
  ASSERT_EQ(ref.last_leader_change(), ens.last_leader_change(r)) << what;
  const auto sa = ref.agents();
  const auto sb = ens.agents(r);
  for (int i = 0; i < ref.n(); ++i)
    ASSERT_EQ(sa[i], sb[i]) << what << " ring " << r << " agent " << i;
}

TEST(WordKernelRunner, WordPathMatchesUnbatchedReference) {
  // A one-ring ensemble's run_ring is WordGroupDriver::run_block, the
  // single-ring grouped driver, at every n (no engagement gate there).
  for (const int n : {4, 16, 64, 257, 1024}) {
    const auto p = PlParams::make(n, 4);
    core::Xoshiro256pp cfg(900 + n);
    const auto init = pl::random_config(p, cfg);
    Runner<PlProtocol> ref(p, init, 42);  // scalar reference
    EnsembleRunner<PlProtocol> word(p, 1);
    word.add_ring(init, 42);
    ASSERT_TRUE(word.word_kernel_mode());
    core::Xoshiro256pp faults(77);
    for (int round = 0; round < 6; ++round) {
      const std::uint64_t k = 500 + 37 * round;
      ref.run_unbatched(k);
      word.run_ring(0, k);
      expect_ring_same(ref, word, 0, "word vs unbatched");
      // In-domain fault storm through both engines' set_agent.
      for (int f = 0; f < 3; ++f) {
        const int idx = static_cast<int>(
            faults.bounded(static_cast<std::uint64_t>(n)));
        const PlState s = pl::random_state(p, faults);
        ref.set_agent(idx, s);
        word.set_agent(0, idx, s);
      }
      expect_ring_same(ref, word, 0, "word vs unbatched after storm");
    }
    EXPECT_TRUE(word.word_kernel_mode());  // in-domain storms keep the lane
  }
}

TEST(WordKernelRunner, EngagementGateRejectsSmallRings) {
  // The single-ring grouped driver only pays off when a group of draws is
  // likely disjoint: benches report its packed cells only where this
  // estimate holds. Tiny rings are below it, big rings above.
  EXPECT_FALSE(core::WordGroupDriver<PlProtocol>::single_ring_engaged(16));
  EXPECT_TRUE(core::WordGroupDriver<PlProtocol>::single_ring_engaged(1024));
}

TEST(WordKernelRunner, CapacityExceededKeepsScalarPath) {
  // psi_slack blows the 64-bit layout; the capacity probe must refuse and
  // the ensemble must never activate the word lane (and still be exact).
  const auto p = PlParams::make(8, 32, /*psi_slack=*/5000);
  EXPECT_FALSE(pl::PackedLayout::make(p).fits());
  // All-zero initial configuration: make_safe_config's segment-ID modulus
  // (1 << psi) has no 64-bit representation at this psi, and the protocol
  // accepts any configuration anyway.
  const std::vector<PlState> init(static_cast<std::size_t>(p.n));
  Runner<PlProtocol> r(p, init, 1);
  Runner<PlProtocol> ref(p, init, 1);
  r.run(200);
  ref.run_unbatched(200);
  expect_same(r, ref, "capacity-refused runner");
  EnsembleRunner<PlProtocol> ens(p, 1);
  ens.add_ring(init, 1);
  EXPECT_FALSE(ens.word_kernel_mode());
  ens.run_ring(0, 200);
  expect_ring_same(ref, ens, 0, "capacity-refused ensemble");
}

TEST(WordKernelEnsemble, KernelLaneMatchesGenericLaneAndRunner) {
  // Satellite: trajectory/census/last_leader_change equivalence vs the
  // generic lane for P_PL at n in {4, 16, 64}, mid-run set_agent storms
  // included. The ensemble run() path is the cross-ring lockstep driver.
  for (const int n : {4, 16, 64}) {
    const auto p = PlParams::make(n, 4);
    const int R = 11;  // not a multiple of the lane width: leftover rings
    EnsembleRunner<PlProtocol> word(p, R);
    EnsembleRunner<PlProtocol> generic(p, R);
    generic.force_generic_path();
    std::vector<Runner<PlProtocol>> refs;
    for (int t = 0; t < R; ++t) {
      core::Xoshiro256pp cfg(50 + t);
      const auto init = pl::random_config(p, cfg);
      word.add_ring(init, 500 + t);
      generic.add_ring(init, 500 + t);
      refs.emplace_back(p, init, 500 + t);
    }
    ASSERT_TRUE(word.word_kernel_mode());
    ASSERT_FALSE(generic.word_kernel_mode());
    core::Xoshiro256pp faults(123);
    for (int round = 0; round < 4; ++round) {
      const std::uint64_t k = 400 + 91 * round;
      word.run(k);
      generic.run(k);
      for (auto& ref : refs) ref.run_unbatched(k);
      for (int t = 0; t < R; ++t) {
        expect_ring_same(refs[t], word, t, "word lane");
        expect_ring_same(refs[t], generic, t, "generic lane");
      }
      // Storm: same faults into every engine.
      for (int f = 0; f < 4; ++f) {
        const int t = static_cast<int>(
            faults.bounded(static_cast<std::uint64_t>(R)));
        const int idx = static_cast<int>(
            faults.bounded(static_cast<std::uint64_t>(n)));
        const PlState s = pl::random_state(p, faults);
        word.set_agent(t, idx, s);
        generic.set_agent(t, idx, s);
        refs[static_cast<std::size_t>(t)].set_agent(idx, s);
      }
    }
    EXPECT_TRUE(word.word_kernel_mode());
  }
}

TEST(WordKernelEnsemble, CrossRingLockstepMatchesPerRingAdvancement) {
  const auto p = PlParams::make(16, 4);
  const int R = 9;
  EnsembleRunner<PlProtocol> lockstep(p, R);
  EnsembleRunner<PlProtocol> per_ring(p, R);
  for (int t = 0; t < R; ++t) {
    core::Xoshiro256pp cfg(70 + t);
    const auto init = pl::random_config(p, cfg);
    lockstep.add_ring(init, 900 + t);
    per_ring.add_ring(init, 900 + t);
  }
  lockstep.run(3000);  // cross-ring lanes
  for (int t = 0; t < R; ++t) per_ring.run_ring(t, 3000);  // one at a time
  for (int t = 0; t < R; ++t) {
    ASSERT_EQ(lockstep.steps(t), per_ring.steps(t));
    ASSERT_EQ(lockstep.leader_count(t), per_ring.leader_count(t));
    ASSERT_EQ(lockstep.last_leader_change(t), per_ring.last_leader_change(t));
    const auto sa = lockstep.agents(t);
    const auto sb = per_ring.agents(t);
    for (int i = 0; i < p.n; ++i) ASSERT_EQ(sa[i], sb[i]);
  }
}

/// run(k) and both run_until_each forms on an R-ring ensemble against R
/// standalone scalar Runners: every ring must track its Runner exactly,
/// rings outside the subset must not move, and their hits stay untouched.
void expect_padded_groups_match(int n, int R, std::uint64_t max_steps) {
  SCOPED_TRACE("n " + std::to_string(n) + ", rings " + std::to_string(R));
  const auto p = PlParams::make(n, 4);
  EnsembleRunner<PlProtocol> ens(p, R);
  std::vector<Runner<PlProtocol>> refs;
  core::Xoshiro256pp cfg(1234 + static_cast<std::uint64_t>(R));
  for (int t = 0; t < R; ++t) {
    // Mostly safe rings hit by a fault or two (at n = 16 they recover
    // inside the budget), with a random ring now and then (it times out).
    auto init = pl::make_safe_config(p, t % p.n, 3);
    if (t % 5 == 4) {
      init = pl::random_config(p, cfg);
    } else {
      pl::corrupt(init, p, 1 + t % 2, cfg);
    }
    const std::uint64_t seed = 50 + static_cast<std::uint64_t>(R * 100 + t);
    ens.add_ring(init, seed);
    refs.emplace_back(p, std::move(init), seed);
  }
  const auto expect_all_same = [&](const char* what) {
    for (int t = 0; t < R; ++t)
      expect_ring_same(refs[static_cast<std::size_t>(t)], ens, t, what);
  };
  const std::uint64_t every = static_cast<std::uint64_t>(n);

  ens.run(301);
  for (auto& r : refs) r.run(301);
  expect_all_same("run(k)");
  ASSERT_TRUE(ens.word_kernel_mode());

  // Subset form, declared safe set (checked on the packed words).
  std::vector<int> subset;
  for (int t = 0; t < R; ++t)
    if (t % 3 != 1) subset.push_back(t);
  std::vector<std::uint64_t> hits(static_cast<std::size_t>(R), 7);
  ens.run_until_each(subset, pl::SafePredicate{}, max_steps, every, hits,
                     true);
  for (int t = 0; t < R; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (t % 3 == 1) {
      ASSERT_EQ(hits[ti], 7u) << "ring " << t << " outside the subset";
      continue;
    }
    const auto want = refs[ti].run_until(pl::SafePredicate{}, max_steps,
                                          every);
    ASSERT_EQ(hits[ti], want.value_or(EnsembleRunner<PlProtocol>::npos))
        << "ring " << t;
  }
  expect_all_same("subset run_until_each");

  // Full form, undeclared (State-checked at every block).
  const auto all = ens.run_until_each(pl::SafePredicate{}, max_steps, every);
  for (int t = 0; t < R; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    const auto want = refs[ti].run_until(pl::SafePredicate{}, max_steps,
                                          every);
    ASSERT_EQ(all[ti], want.value_or(EnsembleRunner<PlProtocol>::npos))
        << "ring " << t;
  }
  expect_all_same("full run_until_each");

  ens.run(77);
  for (auto& r : refs) r.run(77);
  expect_all_same("run(k) after");
}

TEST(WordKernelEnsemble, PaddedGroupsMatchPerRingAdvancementForEveryRemainder) {
  // Every ring count from 1 to 17, and 46 (a campaign shard), leaves every
  // remainder mod G in a trailing group: padded with idle lanes from
  // lockstep_min_rings live rings (G/2 at n = 16), per-ring below.
  for (int R = 1; R <= 17; ++R) expect_padded_groups_match(16, R, 20'000);
  expect_padded_groups_match(16, 46, 20'000);
  // The floor rises with n (6 of 8 lanes at n = 384, a full group from
  // n = 1024 at G = 8): both sides of it, with budgets that mostly time
  // out.
  for (int R : {5, 6, 13, 14}) expect_padded_groups_match(384, R, 3'000);
  expect_padded_groups_match(1024, 15, 3'000);
}

TEST(WordKernelEnsemble, LockstepFloorFollowsDisjointness) {
  using Driver = core::WordGroupDriver<PlProtocol>;
  for (int g : {4, 8}) {
    EXPECT_EQ(Driver::lockstep_min_rings(16, g), g / 2);
    EXPECT_EQ(Driver::lockstep_min_rings(1 << 20, g), g);
    int prev = g / 2;
    for (int n = 16; n <= 65536; n *= 2) {
      const int m = Driver::lockstep_min_rings(n, g);
      EXPECT_GE(m, prev) << "n " << n;  // non-decreasing in n
      EXPECT_LE(m, g);
      prev = m;
    }
  }
  EXPECT_EQ(Driver::lockstep_min_rings(256, 8), 6);   // break-even ~5
  EXPECT_EQ(Driver::lockstep_min_rings(384, 8), 6);
  EXPECT_EQ(Driver::lockstep_min_rings(1024, 8), 8);  // never partial
}

TEST(WordKernelEnsemble, OutOfDomainInjectionDropsLaneNotTrajectory) {
  const auto p = PlParams::make(16, 4);
  EnsembleRunner<PlProtocol> ens(p, 2);
  std::vector<Runner<PlProtocol>> refs;
  for (int t = 0; t < 2; ++t) {
    core::Xoshiro256pp cfg(5 + t);
    const auto init = pl::random_config(p, cfg);
    ens.add_ring(init, 40 + t);
    refs.emplace_back(p, init, 40 + t);
  }
  ens.run(500);
  for (auto& r : refs) r.run_unbatched(500);
  PlState bad;
  bad.token_b = pl::Token{1, 7, 0};  // value outside {0, 1}
  ens.set_agent(1, 3, bad);
  refs[1].set_agent(3, bad);
  EXPECT_FALSE(ens.word_kernel_mode());
  ens.run(500);
  for (auto& r : refs) r.run_unbatched(500);
  for (int t = 0; t < 2; ++t) expect_ring_same(refs[t], ens, t, "fallback");
}

TEST(WordKernelEnsemble, RunUntilEachMatchesRunnerRunUntil) {
  const auto p = PlParams::make(16, 4);
  const int R = 10;
  EnsembleRunner<PlProtocol> ens(p, R);
  std::vector<Runner<PlProtocol>> refs;
  for (int t = 0; t < R; ++t) {
    core::Xoshiro256pp cfg(400 + t);
    const auto init = pl::random_config(p, cfg);
    ens.add_ring(init, 4000 + t);
    refs.emplace_back(p, init, 4000 + t);
  }
  const auto unique_leader = [](std::span<const PlState> c, const PlParams&) {
    int leaders = 0;
    for (const auto& s : c) leaders += s.leader == 1 ? 1 : 0;
    return leaders == 1;
  };
  const std::uint64_t max_steps = 200000;
  const auto hits = ens.run_until_each(unique_leader, max_steps, 64);
  for (int t = 0; t < R; ++t) {
    const auto want = refs[static_cast<std::size_t>(t)].run_until(
        unique_leader, max_steps, 64);
    if (want.has_value()) {
      ASSERT_EQ(hits[static_cast<std::size_t>(t)], *want) << "ring " << t;
    } else {
      ASSERT_EQ(hits[static_cast<std::size_t>(t)],
                EnsembleRunner<PlProtocol>::npos)
          << "ring " << t;
    }
  }
}

TEST(WordKernelEnsemble, SmallC1LaneMatchesGenericLaneAndRunner) {
  // A small-c1 regime (n = 16, c1 = 3: a 31-bit packed image) on the one
  // u64 mirror and cross-ring driver. R = 19 is not a multiple of either
  // lane width, leaving leftover rings for the single-ring grouped path.
  const auto p = PlParams::make(16, 3);
  const int R = 19;
  EnsembleRunner<PlProtocol> word(p, R);
  EnsembleRunner<PlProtocol> generic(p, R);
  generic.force_generic_path();
  std::vector<Runner<PlProtocol>> refs;
  for (int t = 0; t < R; ++t) {
    core::Xoshiro256pp cfg(250 + t);
    const auto init = pl::random_config(p, cfg);
    word.add_ring(init, 800 + t);
    generic.add_ring(init, 800 + t);
    refs.emplace_back(p, init, 800 + t);
  }
  ASSERT_TRUE(word.word_kernel_mode());
  core::Xoshiro256pp faults(321);
  for (int round = 0; round < 4; ++round) {
    const std::uint64_t k = 300 + 77 * round;
    word.run(k);
    generic.run(k);
    for (auto& ref : refs) ref.run_unbatched(k);
    for (int t = 0; t < R; ++t) {
      expect_ring_same(refs[t], word, t, "word lane");
      expect_ring_same(refs[t], generic, t, "generic lane");
    }
    for (int f = 0; f < 4; ++f) {
      const int t = static_cast<int>(
          faults.bounded(static_cast<std::uint64_t>(R)));
      const int idx = static_cast<int>(
          faults.bounded(static_cast<std::uint64_t>(p.n)));
      const PlState s = pl::random_state(p, faults);
      word.set_agent(t, idx, s);
      generic.set_agent(t, idx, s);
      refs[static_cast<std::size_t>(t)].set_agent(idx, s);
    }
  }
  EXPECT_TRUE(word.word_kernel_mode());  // in-domain storms keep the lane
}

TEST(WordKernelCampaign, DifferentialReportsByteIdenticalAcrossThreads) {
  const auto p = PlParams::make(24, 4);
  verification::FuzzConfig cfg;
  cfg.steps = 2048;
  cfg.check_every = 64;
  cfg.fault_storms = 2;
  cfg.faults_per_storm = 2;
  const auto make_init = [](const PlParams& pp, core::Xoshiro256pp& rng) {
    return pl::random_config(pp, rng);
  };
  const auto fault = [](const PlParams& pp, core::Xoshiro256pp& rng,
                        const PlState&, int) {
    return pl::random_state(pp, rng);
  };
  const auto one = verification::run_differential_campaign<PlProtocol>(
      p, cfg, 6, 1, make_init, fault);
  const auto four = verification::run_differential_campaign<PlProtocol>(
      p, cfg, 6, 4, make_init, fault);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t t = 0; t < one.size(); ++t) {
    EXPECT_TRUE(one[t].ok) << one[t].divergence;
    EXPECT_EQ(one[t].digest, four[t].digest);
    EXPECT_EQ(one[t].final_digest, four[t].final_digest);
    EXPECT_TRUE(one[t].packed_lane);  // ensemble kernel lane participated
    EXPECT_TRUE(one[t].lockstep_lane);  // lane G rode the vector-RNG driver
  }
}

}  // namespace
}  // namespace ppsim
