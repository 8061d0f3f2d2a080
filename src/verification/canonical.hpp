// Canonical representatives of ring configurations under the ring's
// symmetry group — the reduction layer of the quotient model checker
// (quotient.hpp).
//
// A configuration of n agents is a digit string d_0 ... d_{n-1} (digit i =
// the packed per-agent state at position i). The uniform scheduler is
// invariant under rotating all agent indices (core::rotate_arc) and, on
// undirected rings, under reflection (core::reflect_arc), so configurations
// equivalent up to those maps have isomorphic futures and the configuration
// graph factors through the orbit space. The canonical representative of an
// orbit is the lexicographically least digit string among the allowed
// transforms:
//
//   * rotations by multiples of `rotation_period` g — g = 1 (the full
//     rotation group, Booth's least-rotation algorithm, O(n)) when the
//     checker adapter is position independent; g > 1 when the adapter bakes
//     periodic per-position inputs into unpack (e.g. a periodic two-hop
//     coloring); g = n means no rotational symmetry at all;
//   * optionally composed with reflection (i -> n-1-i), sound only for
//     position-independent adapters on undirected rings.
//
// All functions operate on plain digit spans so they are checker-agnostic
// and directly unit-testable against brute force
// (tests/verification/canonical_test.cpp).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace ppsim::verification {

/// The symmetry group the quotient checker is allowed to use. Valid
/// rotations are the multiples of `rotation_period` (which must divide n);
/// `reflection` composes every valid rotation with the index reversal.
struct SymmetryGroup {
  int n = 0;
  int rotation_period = 1;  ///< g; g == n disables rotational reduction
  bool reflection = false;

  [[nodiscard]] int order() const noexcept {
    return (n / rotation_period) * (reflection ? 2 : 1);
  }
};

/// Booth's least-rotation algorithm: the rotation index k minimizing the
/// string d_k d_{k+1} ... d_{k+n-1} lexicographically, in O(n) time.
/// `failure` is caller-provided scratch (resized here) so hot loops do not
/// allocate per call.
[[nodiscard]] inline std::size_t least_rotation(
    std::span<const std::uint16_t> d, std::vector<std::int32_t>& failure) {
  const std::size_t n = d.size();
  if (n <= 1) return 0;
  failure.assign(2 * n, -1);
  std::size_t k = 0;  // least-rotation candidate
  for (std::size_t j = 1; j < 2 * n; ++j) {
    const std::uint16_t sj = d[j % n];
    std::int32_t i = failure[j - k - 1];
    while (i != -1 && sj != d[(k + static_cast<std::size_t>(i) + 1) % n]) {
      if (sj < d[(k + static_cast<std::size_t>(i) + 1) % n])
        k = j - static_cast<std::size_t>(i) - 1;
      i = failure[static_cast<std::size_t>(i)];
    }
    if (i == -1 && sj != d[k % n]) {
      if (sj < d[k % n]) k = j;
      failure[j - k] = -1;
    } else {
      failure[j - k] = i + 1;
    }
  }
  return k % n;
}

namespace detail {

/// Lexicographic compare of rotation-by-a vs rotation-by-b of `d`.
[[nodiscard]] inline bool rotation_less(std::span<const std::uint16_t> d,
                                        std::size_t a, std::size_t b) {
  const std::size_t n = d.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t da = d[(a + i) % n];
    const std::uint16_t db = d[(b + i) % n];
    if (da != db) return da < db;
  }
  return false;
}

/// Least rotation restricted to multiples of `period`: Booth for the full
/// group, pairwise compares (O(n^2 / period)) otherwise — the quotient
/// checker only meets period > 1 on tiny position-periodic adapters.
[[nodiscard]] inline std::size_t least_rotation_periodic(
    std::span<const std::uint16_t> d, int period,
    std::vector<std::int32_t>& failure) {
  if (period == 1) return least_rotation(d, failure);
  std::size_t best = 0;
  for (std::size_t r = static_cast<std::size_t>(period); r < d.size();
       r += static_cast<std::size_t>(period)) {
    if (rotation_less(d, r, best)) best = r;
  }
  return best;
}

}  // namespace detail

/// Scratch buffers for allocation-free canonicalization in hot loops.
struct CanonicalScratch {
  std::vector<std::int32_t> failure;
  std::vector<std::uint16_t> reversed;
  std::vector<std::uint16_t> candidate;
};

/// Rewrite `d` to the canonical (lexicographically least reachable) digit
/// string of its orbit under `g`. Deterministic and idempotent:
/// canonicalize(t(d)) == canonicalize(d) for every group element t.
inline void canonicalize(std::vector<std::uint16_t>& d,
                         const SymmetryGroup& g, CanonicalScratch& scratch) {
  const std::size_t n = d.size();
  // invariant: the quotient builds g from the n of its digit vectors,
  assert(static_cast<int>(n) == g.n);
  // invariant: with a rotation period that divides n,
  assert(g.rotation_period >= 1 && g.n % g.rotation_period == 0);
  // invariant: and reflections only over the full rotation group.
  assert(!g.reflection || g.rotation_period == 1);
  if (n <= 1) return;
  const std::size_t k =
      detail::least_rotation_periodic(d, g.rotation_period, scratch.failure);
  scratch.candidate.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    scratch.candidate[i] = d[(k + i) % n];
  if (g.reflection) {
    // Reflection is only sound for position-independent adapters
    // (rotation_period == 1, enforced by the group builder in
    // quotient.hpp), so the reversed string ranges over the full rotation
    // group too.
    scratch.reversed.assign(d.rbegin(), d.rend());
    const std::size_t kr = least_rotation(scratch.reversed, scratch.failure);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint16_t rv = scratch.reversed[(kr + i) % n];
      if (rv != scratch.candidate[i]) {
        if (rv < scratch.candidate[i]) {
          for (std::size_t j = 0; j < n; ++j)
            scratch.candidate[j] = scratch.reversed[(kr + j) % n];
        }
        break;
      }
    }
  }
  d.swap(scratch.candidate);
}

/// Number of distinct digit strings in the orbit of `d` under `g`
/// (orbit-stabilizer: |G| / |stabilizer|). O(|G| * n).
[[nodiscard]] inline std::uint64_t orbit_size(std::span<const std::uint16_t> d,
                                              const SymmetryGroup& g) {
  const std::size_t n = d.size();
  if (n == 0) return 1;
  int stabilizer = 0;
  for (int r = 0; r < g.n; r += g.rotation_period) {
    bool fixed = true;
    for (std::size_t i = 0; i < n && fixed; ++i)
      fixed = d[i] == d[(i + static_cast<std::size_t>(r)) % n];
    stabilizer += fixed ? 1 : 0;
    if (g.reflection) {
      // rotation-by-r composed with reflection: position i reads reversed
      // digit (r + n - 1 - i) mod n.
      fixed = true;
      for (std::size_t i = 0; i < n && fixed; ++i)
        fixed = d[i] ==
                d[(static_cast<std::size_t>(r) + n - 1 - i) % n];
      stabilizer += fixed ? 1 : 0;
    }
  }
  return static_cast<std::uint64_t>(g.order()) /
         static_cast<std::uint64_t>(stabilizer);
}

}  // namespace ppsim::verification
