// Reference S_PL membership (Def. 4.6): the condition-by-condition
// composition of the public predicates of pl/invariants.hpp, each walking
// the ring on its own (leader scan, C_DL layout, a walk to the leader per
// live bullet, token_correct per token, segment IDs). pl::check_safe /
// pl::is_safe evaluate the same set in one allocation-free walk;
// tests/pl/safe_core_differential_test.cpp pins the two verdicts equal.
#pragma once

#include <string>
#include <vector>

#include "core/ring.hpp"
#include "pl/invariants.hpp"

namespace ppsim::pl::testing {

[[nodiscard]] inline SafetyVerdict oracle_check_safe(Config c,
                                                     const PlParams& p) {
  const int n = static_cast<int>(c.size());
  const auto leaders = leader_positions(c);
  if (leaders.size() != 1)
    return {false, "leader count != 1 (" +
                       std::to_string(leaders.size()) + ")"};
  const int k = leaders.front();
  if (!in_cdl_layout(c, p, k)) return {false, "dist/last layout not C_DL"};
  for (int i = 0; i < n; ++i)
    if (c[static_cast<std::size_t>(i)].bullet == common::kLiveBullet &&
        !live_bullet_peaceful(c, i))
      return {false, "non-peaceful live bullet at " + std::to_string(i)};

  for (int i = 0; i < n; ++i) {
    const PlState& s = c[static_cast<std::size_t>(i)];
    for (bool black : {true, false}) {
      const Token& t = black ? s.token_b : s.token_w;
      if (!t.exists()) continue;
      if (s.last == 1)
        return {false, "token hosted in the last segment at " +
                           std::to_string(i)};
      if (!token_correct(c, p, i, black, k))
        return {false, std::string(black ? "black" : "white") +
                           " token invalid/incorrect at " + std::to_string(i)};
    }
  }

  // Segment IDs consecutive for i in [0, zeta-3].
  const auto modulus = static_cast<unsigned long long>(p.id_modulus());
  const int zeta = p.zeta();
  auto segment_id = [&](int seg_index) {
    unsigned long long id = 0;
    for (int j = p.psi - 1; j >= 0; --j)
      id = id * 2 +
           c[static_cast<std::size_t>(
                 core::ring_add(k, seg_index * p.psi + j, n))]
               .b;
    return id;
  };
  for (int i = 0; i + 1 <= zeta - 2; ++i) {
    if (segment_id(i + 1) != (segment_id(i) + 1) % modulus)
      return {false,
              "segment IDs not consecutive at pair " + std::to_string(i)};
  }
  return {true, ""};
}

[[nodiscard]] inline bool oracle_is_safe(Config c, const PlParams& p) {
  return oracle_check_safe(c, p).safe;
}

}  // namespace ppsim::pl::testing
