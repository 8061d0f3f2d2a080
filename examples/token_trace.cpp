// Token trace inspector: renders P_PL's internal machinery — dist ramp,
// segment borders/IDs, black & white tokens, resetting signals, clocks,
// bullets — as ASCII frames while the protocol runs.
//
//   $ ./token_trace [n] [frames] [steps_per_frame]
#include <cstdio>
#include <cstdlib>

#include "core/env.hpp"
#include "core/runner.hpp"
#include "pl/invariants.hpp"
#include "pl/safe_config.hpp"

namespace {

using namespace ppsim;

void render(const core::Runner<pl::PlProtocol>& run) {
  const auto& p = run.params();
  const int n = p.n;
  auto line = [&](const char* label, auto fn) {
    std::printf("%-8s", label);
    for (int i = 0; i < n; ++i) std::printf("%c", fn(run.agent(i)));
    std::printf("\n");
  };
  line("agent", [i = 0](const pl::PlState&) mutable {
    const char c = "0123456789"[i % 10];
    ++i;
    return c;
  });
  line("leader", [](const pl::PlState& s) { return s.leader ? 'L' : '.'; });
  line("dist", [&](const pl::PlState& s) {
    if (s.dist == 0) return 'B';          // black border
    if (static_cast<int>(s.dist) == p.psi) return 'W';  // white border
    return '-';
  });
  line("b", [](const pl::PlState& s) { return s.b ? '1' : '0'; });
  line("last", [](const pl::PlState& s) { return s.last ? 'x' : '.'; });
  line("tokB", [](const pl::PlState& s) {
    if (!s.token_b.exists()) return '.';
    return s.token_b.pos > 0 ? '>' : '<';
  });
  line("tokW", [](const pl::PlState& s) {
    if (!s.token_w.exists()) return '.';
    return s.token_w.pos > 0 ? '>' : '<';
  });
  line("sigR", [](const pl::PlState& s) { return s.signal_r > 0 ? 'S' : '.'; });
  line("clock", [&](const pl::PlState& s) {
    const int frac = 10 * s.clock / (p.kappa_max == 0 ? 1 : p.kappa_max);
    return "0123456789X"[frac > 10 ? 10 : frac];
  });
  line("bullet", [](const pl::PlState& s) {
    return s.bullet == 2 ? '!' : s.bullet == 1 ? 'o' : '.';
  });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppsim;
  const int n = argc > 1 ? core::parse_int("n", argv[1]) : 32;
  const int frames = argc > 2 ? core::parse_int("frames", argv[2]) : 6;
  const auto p = pl::PlParams::make(n, 4);
  const std::uint64_t per_frame =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10)
               : static_cast<std::uint64_t>(n) * n;

  core::Runner<pl::PlProtocol> run(p, pl::make_fresh_config(p), 3);
  std::printf("P_PL internals, n=%d psi=%d (fresh single-leader start)\n"
              "legend: B/W = black/white border, >/< = token direction,\n"
              "        S = resetting signal, ! = live bullet, o = dummy\n",
              n, p.psi);
  for (int f = 0; f <= frames; ++f) {
    std::printf("\n--- t = %llu%s ---\n",
                static_cast<unsigned long long>(run.steps()),
                pl::is_safe(run.agents(), p) ? "  [in S_PL]" : "");
    render(run);
    run.run(per_frame);
  }
  return 0;
}
