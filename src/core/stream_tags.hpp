// Central registry of every RNG stream-derivation tag in the repo — the
// determinism contract as code.
//
// Bit-identical replay across thread counts, shard widths and engine lanes
// rests on one discipline: every RNG stream is derived from a trial seed
// via exactly one of two blessed operations,
//
//   * stream_seed(seed, tag)        — a per-trial side stream (config
//     drawing, fault injection, omission loss), decorrelated from the main
//     scheduler stream by a registered XOR tag;
//   * derive_seed(base, tag, index) — an indexed seed *family* (trial t of
//     an experiment, decoy ring r of a lockstep lane), mixed through
//     SplitMix64 (core/rng.hpp).
//
// Before this registry the tags lived as inline hex literals scattered
// across five headers; two tags colliding — or one drifting in a refactor —
// would silently correlate streams that every bit-identity test assumes
// independent. Here every tag is declared once, and two structural
// invariants are enforced at compile time over the whole set:
//
//   1. pairwise distinctness (a duplicate tag aliases two streams), and
//   2. a minimum pairwise Hamming distance of kMinTagHammingDistance —
//      near-miss tags (one flipped bit apart) are exactly the typo class a
//      refactor introduces, and XOR-derived side streams with adjacent tags
//      differ in their seed by that same near-zero mask.
//
// scripts/ppsim_lint.py closes the loop from the other side: it rejects any
// RNG construction in src/ whose seed expression carries an unregistered
// inline hex tag, so a new stream cannot bypass this file.
//
// Changing any value below changes every trajectory derived from the
// affected stream (committed BENCH artifacts, golden tests). The registry
// values are pinned by tests/core/stream_tags_test.cpp.
#pragma once

#include <cstdint>

namespace ppsim::core::streams {

/// Per-trial configuration stream: initial configurations are drawn from
/// Xoshiro256pp(stream_seed(trial_seed, kConfig)). Used by the experiment
/// drivers (analysis/experiment.hpp), the scenario engine
/// (analysis/scenario.hpp) and the differential campaign driver
/// (verification/differential.hpp).
inline constexpr std::uint64_t kConfig = 0xC0FFEEULL;

/// Per-trial fault-injection stream: scheduled fault bursts and storm
/// corruption draw from Xoshiro256pp(stream_seed(trial_seed, kFaults)),
/// decorrelated from both the scheduler and config streams
/// (analysis/scenario.hpp, verification/differential.hpp).
inline constexpr std::uint64_t kFaults = 0xFA5EEDULL;

/// Omission / message-loss stream: an engine seeded with `seed` draws its
/// loss events from Xoshiro256pp(stream_seed(seed, kLoss)) so enabling loss
/// never perturbs the arc-draw stream (both engines' set_scheduler_faults
/// and add_ring, the differential mirror).
inline constexpr std::uint64_t kLoss = 0x1055ULL;

/// derive_seed tag for the lockstep lane's decoy rings: differential lane G
/// seeds ring r > 0 with derive_seed(trial_seed, kLockstepDecoy, r)
/// (verification/differential.hpp).
inline constexpr std::uint64_t kLockstepDecoy = 0x10C5ULL;

/// derive_seed tag for differential-campaign trials: trial t runs with
/// derive_seed(base_seed, kDifferentialTrial, t)
/// (verification/differential.hpp run_differential_campaign's default tag).
inline constexpr std::uint64_t kDifferentialTrial = 0xD1FFULL;

/// Seed constant of the final-state digest fold in a FuzzReport — not an
/// RNG stream, but registered so the digest domain can never collide with a
/// stream tag (verification/differential.hpp).
inline constexpr std::uint64_t kDigest = 0x5EEDEDULL;

/// Probabilistic failpoint firing stream: a `p<permille>@<seed>` schedule
/// unit draws from Xoshiro256pp(stream_seed(seed, kFailpoint)) — same seed,
/// same injected-fault pattern, decorrelated from every simulation stream
/// (core/failpoint.hpp).
inline constexpr std::uint64_t kFailpoint = 0xFA17ULL;

/// Retry-backoff jitter stream: service::RetryState draws its exponential-
/// backoff jitter from Xoshiro256pp(stream_seed(policy.seed, kRetryJitter)),
/// so retry timing is reproducible and never touches an engine stream
/// (service/retry.hpp). Jitter affects wall clock only, never output bytes.
inline constexpr std::uint64_t kRetryJitter = 0xB0FFULL;

/// Every registered tag, for the structural checks below and for the
/// runtime mirror in tests/core/stream_tags_test.cpp. Append new tags here.
inline constexpr std::uint64_t kAll[] = {
    kConfig,        kFaults,    kLoss,        kLockstepDecoy,
    kDifferentialTrial, kDigest, kFailpoint, kRetryJitter,
};
inline constexpr int kCount = static_cast<int>(sizeof(kAll) / sizeof(kAll[0]));

/// Floor on the pairwise Hamming distance of registered tags. The closest
/// pair today is kLoss/kLockstepDecoy at distance 2 (0x1055 ^ 0x10C5 =
/// 0x90); raising a tag's distance retroactively would re-seed committed
/// trajectories, so the floor documents the real minimum instead of an
/// aspirational one — new tags must clear it against every existing tag.
inline constexpr int kMinTagHammingDistance = 2;

namespace detail {

[[nodiscard]] constexpr int popcount64(std::uint64_t x) noexcept {
  int c = 0;
  while (x != 0) {
    c += static_cast<int>(x & 1);
    x >>= 1;
  }
  return c;
}

[[nodiscard]] constexpr bool all_distinct() noexcept {
  for (int i = 0; i < kCount; ++i)
    for (int j = i + 1; j < kCount; ++j)
      if (kAll[i] == kAll[j]) return false;
  return true;
}

[[nodiscard]] constexpr int min_pairwise_hamming() noexcept {
  int best = 64;
  for (int i = 0; i < kCount; ++i)
    for (int j = i + 1; j < kCount; ++j) {
      const int d = popcount64(kAll[i] ^ kAll[j]);
      if (d < best) best = d;
    }
  return best;
}

}  // namespace detail

static_assert(detail::all_distinct(),
              "stream-tag registry: two registered tags collide — the "
              "streams they derive would be identical");
static_assert(detail::min_pairwise_hamming() >= kMinTagHammingDistance,
              "stream-tag registry: a pair of tags is within Hamming "
              "distance 1 — near-miss tags are one typo away from aliasing "
              "two streams");
static_assert(detail::popcount64(0) == 0 && detail::popcount64(0x90) == 2,
              "popcount64 self-check");

}  // namespace ppsim::core::streams

namespace ppsim::core {

/// The blessed derivation of a per-trial side stream: XOR the trial seed
/// with a registered tag. Kept as a plain XOR — not a mix — deliberately:
/// every committed trajectory (BENCH artifacts, golden tests) was produced
/// under this scheme, and decorrelation across *streams of one trial* only
/// needs distinct seeds into SplitMix64's full-period state expansion.
/// Cross-*trial* decorrelation is derive_seed's job (core/rng.hpp).
[[nodiscard]] constexpr std::uint64_t stream_seed(std::uint64_t trial_seed,
                                                  std::uint64_t tag) noexcept {
  return trial_seed ^ tag;
}

}  // namespace ppsim::core
