// Chen-Chen [11] detection-principle demo (Thue-Morse substrate).
//
// With a leader anchoring a Thue-Morse prefix, the ring labeling is
// cube-free: nothing to detect, ever (closure). Remove the leader and the
// labeling becomes an n-periodic string, which always contains a cube
// (w = n at the latest): leader absence is detectable in principle with O(1)
// states — the price Chen-Chen pay is super-exponential time, which is why
// the full protocol is carried as theory (DESIGN.md §2.4).
//
//   $ ./tm_cube_demo [n]
#include <cstdio>
#include <string>

#include "baselines/thue_morse.hpp"
#include "core/env.hpp"

int main(int argc, char** argv) {
  using namespace ppsim::baselines;
  const int n = argc > 1 ? ppsim::core::parse_int("n", argv[1]) : 24;

  const auto ring = embed_thue_morse(n, 0);
  std::printf("ring labeling (Thue-Morse prefix anchored at leader u_0):\n  ");
  for (auto b : ring) std::printf("%d", b);
  std::printf("\n\n");

  // With the leader: read the labeling linearly from the anchor — cube-free.
  const auto prefix = thue_morse_prefix(static_cast<std::size_t>(n));
  std::printf("linear (leader-anchored) reading cube-free: %s\n",
              has_cube(prefix) ? "NO (unexpected!)" : "yes");

  // Without the leader: the ring is an n-periodic string; some cube exists.
  const auto w = smallest_cyclic_cube_window(ring, static_cast<std::size_t>(n));
  if (w) {
    std::printf("leaderless (cyclic) reading contains a cube: window w = %zu"
                "  -> absence is detectable\n", *w);
  } else {
    std::printf("no cyclic cube up to w = n: unexpected!\n");
  }

  // Sweep: smallest detectable window per ring size — the "work" a
  // Chen-Chen-style detector must do grows with n, with O(1) memory: hence
  // the super-exponential time.
  std::printf("\n%6s %18s\n", "n", "smallest cube w");
  for (int m = 6; m <= n * 4; m *= 2) {
    const auto r = embed_thue_morse(m, 0);
    const auto wm = smallest_cyclic_cube_window(r, static_cast<std::size_t>(m));
    std::printf("%6d %18s\n", m,
                wm ? std::to_string(*wm).c_str() : "none<=n");
  }
  return 0;
}
