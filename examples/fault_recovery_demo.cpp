// Fault-recovery demo: a converged ring is repeatedly hit by fault bursts
// (random state corruption, leader deletion, leader duplication) and heals
// every time. Prints a timeline.
//
//   $ ./fault_recovery_demo [n] [seed]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/env.hpp"
#include "core/runner.hpp"
#include "pl/adversary.hpp"
#include "pl/invariants.hpp"
#include "pl/safe_config.hpp"

namespace {

using namespace ppsim;

std::uint64_t heal(core::Runner<pl::PlProtocol>& runner) {
  const auto before = runner.steps();
  const auto hit = runner.run_until(pl::SafePredicate{}, 4'000'000'000ULL);
  return hit ? *hit - before : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppsim;
  const int n = argc > 1 ? core::parse_int("n", argv[1]) : 64;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                      : 7;
  const auto p = pl::PlParams::make(n, 8);
  core::Xoshiro256pp rng(seed);

  core::Runner<pl::PlProtocol> runner(p, pl::make_safe_config(p), seed);
  std::printf("t=%-12llu converged system, leader at u_%d\n",
              static_cast<unsigned long long>(runner.steps()),
              pl::leader_positions(runner.agents()).front());

  struct Burst {
    const char* name;
    int faults;  // -1: delete leader; -2: duplicate leader
  };
  const std::vector<Burst> script{
      {"corrupt 1 agent", 1},    {"corrupt n/4 agents", n / 4},
      {"delete the leader", -1}, {"duplicate the leader", -2},
      {"corrupt n/2 agents", n / 2},
  };

  for (const Burst& b : script) {
    auto config =
        std::vector<pl::PlState>(runner.agents().begin(),
                                 runner.agents().end());
    if (b.faults == -1) {
      config[static_cast<std::size_t>(
                 pl::leader_positions(config).front())]
          .leader = 0;
    } else if (b.faults == -2) {
      const int k = pl::leader_positions(config).front();
      auto& rogue = config[static_cast<std::size_t>((k + n / 2) % n)];
      rogue.leader = 1;
      rogue.shield = 1;
    } else {
      pl::corrupt(config, p, b.faults, rng);
    }
    core::Runner<pl::PlProtocol> next(p, config, rng());
    std::printf("  >> fault: %-24s leaders now: %d\n", b.name,
                next.leader_count());
    const auto steps = heal(next);
    std::printf("t=+%-11llu healed, leader at u_%d (%.2f x n^2 lg n)\n",
                static_cast<unsigned long long>(steps),
                pl::leader_positions(next.agents()).front(),
                static_cast<double>(steps) /
                    (static_cast<double>(n) * n * p.psi));
    runner = next;
  }
  std::printf("\nall bursts healed; final leader u_%d\n",
              pl::leader_positions(runner.agents()).front());
  return 0;
}
