// pl::is_safe / pl::check_safe (one walk from the leader) against the
// condition-by-condition reference in tests/pl/safe_oracle.hpp, on safe
// configurations that carry tokens, every single-field perturbation of them,
// random and token-heavy configurations, and configurations sampled along
// recovery trajectories. Only the verdicts must agree: the two report the
// first violation in different orders. pl::is_safe_words (the same walk on
// the packed mirror) must agree too, on every one of those configurations
// that survives the pack round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "core/rng.hpp"
#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"
#include "pl/packed_state.hpp"
#include "pl/protocol.hpp"
#include "pl/safe_config.hpp"
#include "safe_oracle.hpp"

namespace ppsim::pl {
namespace {

using testing::oracle_is_safe;

/// Configurations whose every agent survives the pack round trip, i.e.
/// those the word lane can hold (counted per test: the perturbation
/// corpus must reach the word form too).
int g_word_checked = 0;

/// Compare all verdicts; returns the shared one.
bool expect_agree(const std::vector<PlState>& c, const PlParams& p,
                  const std::string& where) {
  const bool want = oracle_is_safe(c, p);
  EXPECT_EQ(is_safe(c, p), want) << where;
  const SafetyVerdict v = check_safe(c, p);
  EXPECT_EQ(v.safe, want) << where << " reason: " << v.reason;
  EXPECT_EQ(v.reason.empty(), v.safe) << where;
  const PackedLayout l = PackedLayout::make(p);
  std::vector<std::uint64_t> words;
  for (const PlState& s : c) {
    words.push_back(pack_word(s, l));
    if (!(unpack_word(words.back(), l) == s)) return want;  // not word-held
  }
  EXPECT_EQ(is_safe_words(words, l, p), want) << where << " (words)";
  ++g_word_checked;
  return want;
}

/// A safe configuration with tokens in flight: a canonical safe
/// configuration run forward (S_PL is closed, Lemma 4.7).
std::vector<PlState> safe_with_tokens(const PlParams& p, int leader,
                                      std::uint64_t seed) {
  core::Runner<PlProtocol> run(p, make_safe_config(p, leader, 5), seed);
  run.run(static_cast<std::uint64_t>(40 * p.n * p.psi));
  const auto c = run.agents();
  return {c.begin(), c.end()};
}

int count_tokens(const std::vector<PlState>& c) {
  int t = 0;
  for (const PlState& s : c) t += s.token_b.exists() + s.token_w.exists();
  return t;
}

/// Every token value of one colour: bot, every in-domain (pos, value,
/// carry), and out-of-domain positions that make the target wrap the ring.
std::vector<Token> token_values(const PlParams& p) {
  std::vector<Token> out{kNoToken};
  std::vector<int> positions;
  for (int pos = -p.psi + 1; pos <= p.psi; ++pos)
    if (pos != 0) positions.push_back(pos);
  for (int pos : {p.psi + 1, -p.psi, p.n, -p.n, p.n + 1, 127, -128})
    positions.push_back(pos);
  for (int pos : positions)
    for (std::uint8_t value : {0, 1})
      for (std::uint8_t carry : {0, 1})
        out.push_back(Token{static_cast<std::int8_t>(pos), value, carry});
  return out;
}

/// Calls `visit` once per single-field perturbation of agent `i` (the
/// configuration is restored afterwards).
void for_each_perturbation(std::vector<PlState>& c, int i, const PlParams& p,
                           const std::vector<Token>& tokens,
                           const std::function<void()>& visit) {
  PlState& s = c[static_cast<std::size_t>(i)];
  const PlState orig = s;
  const auto each = [&](auto field, std::initializer_list<int> values) {
    for (int v : values) {
      s.*field = static_cast<std::remove_reference_t<decltype(s.*field)>>(v);
      if (!(s == orig)) visit();
      s = orig;
    }
  };
  each(&PlState::leader, {0, 1, 2});
  each(&PlState::b, {0, 1, 2});
  for (int d = 0; d <= p.two_psi(); ++d) each(&PlState::dist, {d});
  each(&PlState::last, {0, 1, 2});
  each(&PlState::clock, {0, p.kappa_max});
  each(&PlState::hits, {0, p.psi});
  each(&PlState::signal_r, {0, p.kappa_max});
  each(&PlState::bullet, {0, 1, 2, 3});
  each(&PlState::shield, {0, 1, 2});
  each(&PlState::signal_b, {0, 1, 2});
  for (Token PlState::*tm : {&PlState::token_b, &PlState::token_w}) {
    for (const Token& t : tokens) {
      s.*tm = t;
      if (!(s == orig)) visit();
      s = orig;
    }
  }
}

class SafeCoreSizes : public ::testing::TestWithParam<int> {};

TEST_P(SafeCoreSizes, SafeConfigsAndEverySingleFieldPerturbation) {
  const int n = GetParam();
  g_word_checked = 0;
  const PlParams p = PlParams::make(n, 4);
  const std::vector<Token> tokens = token_values(p);
  for (int leader : {0, n / 3, n - 1}) {
    auto c = safe_with_tokens(p, leader, 11 + static_cast<std::uint64_t>(n));
    ASSERT_TRUE(expect_agree(c, p, "base"));
    if (n >= 8) {
      EXPECT_GT(count_tokens(c), 0) << "n=" << n;
    }
    int safe = 0, unsafe = 0;
    for (int i = 0; i < n; ++i) {
      for_each_perturbation(c, i, p, tokens, [&] {
        (expect_agree(c, p, "n=" + std::to_string(n) +
                                " agent " + std::to_string(i))
             ? safe
             : unsafe)++;
      });
      if (HasFailure()) return;
    }
    // Both verdicts occur: the perturbations reach every condition.
    EXPECT_GT(safe, 0);
    EXPECT_GT(unsafe, 0);
  }
  // Every in-domain perturbation is word-held; out-of-domain ones are not.
  EXPECT_GT(g_word_checked, 3 * n);
}

TEST_P(SafeCoreSizes, RandomAndTokenHeavyConfigs) {
  const int n = GetParam();
  const PlParams p = PlParams::make(n, 4);
  g_word_checked = 0;
  core::Xoshiro256pp rng(0x5AFE + static_cast<std::uint64_t>(n));
  for (int t = 0; t < 200; ++t)
    expect_agree(random_config(p, rng), p, "random " + std::to_string(t));

  // A safe layout with one to three agents' tokens, bullets, signals or
  // bits randomized: deep enough into the predicate that token correctness
  // decides.
  const auto base = safe_with_tokens(p, n / 2, 3);
  int safe = 0;
  for (int t = 0; t < 400; ++t) {
    auto c = base;
    for (std::uint64_t m = 1 + rng.bounded(3); m > 0; --m) {
      PlState& s = c[static_cast<std::size_t>(
          rng.bounded(static_cast<std::uint64_t>(n)))];
      const PlState r = random_state(p, rng);
      switch (rng.bounded(5)) {
        case 0: s.token_b = r.token_b; break;
        case 1: s.token_w = r.token_w; break;
        case 2: s.bullet = r.bullet; break;
        case 3: s.signal_b = r.signal_b; break;
        default: s.b = r.b; break;
      }
    }
    safe += expect_agree(c, p, "token-heavy " + std::to_string(t));
  }
  EXPECT_GT(safe, 0);
  EXPECT_LT(safe, 400);
  EXPECT_EQ(g_word_checked, 600);  // random_state stays in the word domain
}

INSTANTIATE_TEST_SUITE_P(Rings, SafeCoreSizes,
                         ::testing::Values(4, 8, 16, 17, 23, 32, 64, 100,
                                           256));

TEST(SafeCore, AgreesAlongRecoveryTrajectories) {
  g_word_checked = 0;
  for (int n : {8, 16, 23, 32}) {
    const PlParams p = PlParams::make(n, 4);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      core::Xoshiro256pp rng(seed * 977 + static_cast<std::uint64_t>(n));
      auto start = safe_with_tokens(p, static_cast<int>(seed) % n, seed);
      corrupt(start, p, static_cast<int>(seed) * n / 8 + 1, rng);
      core::Runner<PlProtocol> run(p, start, seed);
      int safe = 0;
      for (int block = 0; block < 4000 && safe < 20; ++block) {
        const auto c = run.agents();
        safe += expect_agree({c.begin(), c.end()}, p,
                             "n=" + std::to_string(n) + " seed " +
                                 std::to_string(seed) + " step " +
                                 std::to_string(run.steps()));
        if (HasFailure()) return;
        run.run(static_cast<std::uint64_t>(n));
      }
    }
  }
  EXPECT_GT(g_word_checked, 0);
}

TEST(SafeCore, ReasonNamesTheFirstViolation) {
  const PlParams p = PlParams::make(16, 4);
  auto c = make_safe_config(p, 3);
  c[9].leader = 1;
  EXPECT_EQ(check_safe(c, p).reason, "leader count != 1 (2)");
  c[9].leader = 0;
  c[7].dist = static_cast<std::uint16_t>((c[7].dist + 1) % p.two_psi());
  EXPECT_EQ(check_safe(c, p).reason, "dist/last layout not C_DL at 7");
  c = make_safe_config(p, 3);
  c[5].bullet = common::kLiveBullet;
  c[4].signal_b = 1;
  EXPECT_EQ(check_safe(c, p).reason, "non-peaceful live bullet at 5");
}

}  // namespace
}  // namespace ppsim::pl
