// Trial-batched simulation: R independent rings of the same Params advanced
// in one engine, for the campaign workloads the SS-LE evaluation lives on
// (thousands of trials per (protocol, n, fault-schedule) cell).
//
// Why: a per-trial Runner pays construction and dispatch per trial, and at
// small n — exactly where tail statistics need the most trials — per-trial
// overhead dominates. EnsembleRunner keeps all R rings' agent states in one
// contiguous struct-of-arrays block (ring r occupies slots [r*n, (r+1)*n)),
// with one RingClock, one main stream and one loss stream per ring in
// parallel arrays.
//
// Lanes. Every protocol runs the generic lane; at most one accelerated
// lane, chosen by the protocol's shape, runs instead while it can:
//   * generic — InteractionEngine<P>::run_block, the same block loop (and
//     the same detail::ArcScheduler, clean or faulted) Runner::run runs;
//   * LUT (kPackable — modk) — protocols with a canonical O(1) enumeration
//     of their per-agent states (num_states / pack_state / unpack_state)
//     and no oracle input get their pair-transition function precomputed
//     into a table of 8-byte entries (packed successors + census deltas,
//     computed by the same apply and census predicates): one L1 load per
//     interaction on a u16 mirror, ~2x campaign throughput on small-n modk
//     cells (BENCH_ensemble.json);
//   * word (kWordable — P_PL) — protocols whose whole variable block
//     bit-slices into one uint64_t run the branchless SIMD kernel
//     (core::WordGroupDriver) on a u64 mirror. run(k) and run_until_each
//     advance rings in *cross-ring lockstep*, one SIMD lane per ring; a
//     trailing partial group of at least WordGroupDriver::
//     lockstep_min_rings rings runs in lockstep too, its idle lanes parked
//     on a scratch block of in-domain words (idle_words_).
// No protocol has both accelerators, so the two share one mirror vector,
// one fast-lane flag and one encode/decode pair. States are materialized
// from the mirror lazily (per-ring dirty bit) when a predicate or accessor
// needs them.
//
// Determinism contract: ring r owns *exactly* the streams a standalone
// Runner<P> constructed with the same seed would own, rings never interact,
// and every interaction goes through the shared run_block, a table entry
// precomputed by the same code path, or a word kernel certified
// bit-identical to it — so each ring's trajectory, census and clock equal
// the single-ring engine's (tests/core/ensemble_test.cpp). The accelerated
// lanes self-validate: the LUT's domain must round-trip pack/unpack and be
// closed under apply, and every state entering the ensemble (add_ring,
// set_agent) must round-trip — any violation, and any active scheduler
// fault model, permanently drops the ensemble to the generic lane, never to
// a wrong trajectory. This is what lets
// analysis::detail::ensemble_recovery_shard — the one shard function behind
// measure_convergence, measure_recovery and service::CampaignService — run
// trials as ensembles without changing a single published number.
//
// run_until_each mirrors Runner::run_until per ring (pre-check, then blocks
// of check_every against a saturated per-ring deadline); converged or
// timed-out rings retire from a compacted active index array so a few slow
// rings never pay for the fast majority. A predicate declared to be P's
// safe set (ScenarioSpec::recovered_is_safe_set) is census-gated — a ring
// whose leader census is not 1 fails the check unread — and, on the word
// lane of a protocol with a word-form safe set (HasWordSafeSet: P_PL), a
// ring whose census is 1 is checked on its slice of the mirror, so the
// campaign's recovery loop never unpacks a ring.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/ring.hpp"
#include "core/rng.hpp"
#include "core/runner.hpp"

namespace ppsim::core {

/// Protocols with a canonical enumeration of their per-agent state space:
/// pack_state is injective on the domain, unpack_state is its inverse, and
/// the domain is closed under apply (validated at table build — violations
/// disable the packed mode rather than corrupting trajectories).
template <typename P>
concept HasPackedStates =
    requires(const typename P::State& s, const typename P::Params& p,
             std::size_t v) {
      { P::num_states(p) } -> std::convertible_to<std::size_t>;
      { P::pack_state(s, p) } -> std::convertible_to<std::size_t>;
      { P::unpack_state(v, p) } -> std::convertible_to<typename P::State>;
    };

/// Word-kernel protocols that can also test membership in their safe set on
/// one ring's packed words (P_PL: pl::is_safe_words), giving the same
/// verdict as the State-form safe-set predicate on the unpacked ring. The
/// word lane's run_until_each checks a predicate declared to be the safe
/// set here, without materializing the ring's states.
template <typename P>
concept HasWordSafeSet =
    HasWordKernel<P> &&
    requires(std::span<const std::uint64_t> w,
             const typename P::WordLayout& lay, const typename P::Params& p) {
      { P::is_safe_words(w, lay, p) } -> std::convertible_to<bool>;
    };

template <typename P, typename Topo = RingTopology>
class EnsembleRunner {
  static_assert(TopologyLike<Topo>);

 public:
  using State = typename P::State;
  using Params = typename P::Params;
  using Topology = Topo;
  using Engine = InteractionEngine<P>;

  static constexpr std::uint64_t npos =
      std::numeric_limits<std::uint64_t>::max();

  /// Packed-state mode is available when the state space is enumerable, the
  /// protocol takes no oracle input (the table key is the state pair alone)
  /// and states are equality-comparable (round-trip validation).
  static constexpr bool kPackable = HasPackedStates<P> && !WantsOracle<P> &&
                                    std::equality_comparable<State>;

  /// Word-kernel mode (the *kernel lane*): protocols exposing a 64-bit
  /// bit-sliced transition kernel (core::HasWordKernel — P_PL) whose state
  /// space is far too large for the pair-transition LUT. Ring-only (the
  /// driver's endpoint arithmetic and disjointness proofs are ring math);
  /// the LUT lane, by contrast, is topology-generic.
  static constexpr bool kWordable =
      WordKernelRunnable<P> && std::is_same_v<Topo, RingTopology>;

  static_assert(!(kPackable && kWordable),
                "EnsembleRunner: one accelerated lane per protocol (the "
                "LUT and word lanes share one mirror)");

  using WordLayout = typename detail::WordLayoutOf<P>::type;
  using WordConsts = typename detail::WordConstsOf<P>::type;

  /// Pair-space cap for the transition table: 2^16 pairs = 512 KiB of
  /// entries. Above that the table thrashes the cache and the branchy
  /// transition wins again.
  static constexpr std::size_t kMaxLutPairs = std::size_t{1} << 16;

  explicit EnsembleRunner(Params params, int reserve_rings = 0)
      : params_(std::move(params)),
        topo_(params_.n),
        sched_(static_cast<std::uint64_t>(topo_.arc_count(P::directed))) {
    init_modes(reserve_rings);
  }

  /// Explicit-topology constructor (topologies that carry more than n).
  EnsembleRunner(Topo topo, Params params, int reserve_rings = 0)
      : params_(std::move(params)),
        topo_(std::move(topo)),
        sched_(static_cast<std::uint64_t>(topo_.arc_count(P::directed))) {
    detail::require_n_agents(static_cast<std::size_t>(topo_.n()), params_.n,
                             "EnsembleRunner: topology");
    init_modes(reserve_rings);
  }

  /// Append one ring initialized from `initial`, seeded exactly like
  /// `Runner<P>(params, initial, seed)`. Returns the ring index.
  /// Throws std::invalid_argument unless `initial` has exactly n states.
  int add_ring(std::span<const State> initial, std::uint64_t seed) {
    detail::require_n_agents(initial.size(), params_.n,
                             "EnsembleRunner::add_ring: initial configuration");
    states_.insert(states_.end(), initial.begin(), initial.end());
    rngs_.emplace_back(seed);
    seeds_.push_back(seed);
    loss_rngs_.emplace_back(stream_seed(seed, streams::kLoss));
    RingClock clk;
    clk.oracle_delay = oracle_delay_;
    Engine::recount(initial, params_, clk);
    clocks_.push_back(clk);
    dirty_.push_back(0);
    if constexpr (kMirrored) {
      if (fast_) {
        for (const State& s : initial) {
          const std::optional<Packed> v = encode(s);
          if (!v) {
            force_generic_path();  // out-of-domain state: generic, forever
            break;
          }
          mirror_.push_back(*v);
        }
      }
    }
    return static_cast<int>(clocks_.size()) - 1;
  }

  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] int n() const noexcept { return params_.n; }
  [[nodiscard]] int ring_count() const noexcept {
    return static_cast<int>(clocks_.size());
  }

  /// True while the precomputed pair-transition table drives the hot loop
  /// (introspection for tests and benches; trajectories are identical either
  /// way).
  [[nodiscard]] bool packed_mode() const noexcept { return kPackable && fast_; }

  /// True while the word-packed kernel lane drives the hot loop (P_PL's
  /// bit-sliced apply_word; introspection only — trajectories are identical
  /// to the generic path).
  [[nodiscard]] bool word_kernel_mode() const noexcept {
    return kWordable && fast_;
  }

  /// Always false: the word lane has a single u64 mirror. Kept only
  /// because perfbench/campaign_bench.cpp still reads it to label the lane.
  [[nodiscard]] static constexpr bool narrow_word_mode() noexcept {
    return false;
  }

  [[nodiscard]] std::span<const State> agents(int r) const {
    sync_ring(check_ring(r));
    return {states_.data() + ring_offset(r),
            static_cast<std::size_t>(params_.n)};
  }
  [[nodiscard]] const State& agent(int r, int i) const {
    sync_ring(check_ring(r));
    return states_[ring_offset(r) + check_agent(i)];
  }
  [[nodiscard]] std::uint64_t steps(int r) const { return clock(r).steps; }
  [[nodiscard]] int leader_count(int r) const {
    return clock(r).leader_count;
  }
  [[nodiscard]] int token_count(int r) const { return clock(r).token_count; }
  [[nodiscard]] std::uint64_t last_leader_change(int r) const {
    return clock(r).last_leader_change;
  }

  [[nodiscard]] const Topo& topology() const noexcept { return topo_; }

  /// Oracle delay for every ring, current and future (mirrors
  /// Runner::set_oracle_delay).
  void set_oracle_delay(std::uint64_t d) noexcept {
    oracle_delay_ = d;
    for (RingClock& c : clocks_) c.oracle_delay = d;
  }

  /// Configure the scheduler fault models for every ring, current and
  /// future (see core::SchedulerFaults and Runner::set_scheduler_faults).
  /// Every ring's loss stream is (re)derived as stream_seed(ring_seed,
  /// streams::kLoss), so ring r's faulted trajectory stays bit-identical to
  /// a standalone Runner constructed with the same seed and faults. Active
  /// faults permanently drop the ensemble to the generic lane (the
  /// accelerated lanes assume the clean uniform scheduler).
  void set_scheduler_faults(const SchedulerFaults& f) {
    sched_.configure(f);
    for (std::size_t r = 0; r < seeds_.size(); ++r)
      loss_rngs_[r] = Xoshiro256pp(stream_seed(seeds_[r], streams::kLoss));
    if (sched_.faulted()) force_generic_path();
  }

  /// True when a scheduler fault model (loss or bias) is configured.
  [[nodiscard]] bool scheduler_faults_active() const noexcept {
    return sched_.faulted();
  }

  /// Permanently leave the accelerated lane (no-op when already generic):
  /// materialize every ring's states, then drop the mirror. Every later
  /// interaction goes through the shared run_block, and trajectories are
  /// bit-identical either way. Also the demotion of add_ring, set_agent
  /// and set_scheduler_faults; public so the differential fuzz harness
  /// (src/verification/differential.hpp) can drive the generic and
  /// accelerated lanes side by side.
  void force_generic_path() {
    if constexpr (kMirrored) {
      for (int r = 0; r < ring_count(); ++r) sync_ring(r);
      fast_ = false;
      mirror_.clear();
      mirror_.shrink_to_fit();
      idle_words_.clear();
      idle_words_.shrink_to_fit();
    }
  }

  /// Fault injection into ring r, delta-census, identical to
  /// Runner::set_agent. On an accelerated lane the injected state must
  /// round-trip the mirror encoding; otherwise the ensemble drops to the
  /// generic lane (still exact, just slower). Throws std::out_of_range on a
  /// bad ring or agent index, in every build type (an inject callback's
  /// index must never write past the ring).
  void set_agent(int r, int i, const State& s) {
    sync_ring(check_ring(r));
    const std::size_t slot = ring_offset(r) + check_agent(i);
    Engine::set_agent(states_[slot], s, params_,
                      clocks_[static_cast<std::size_t>(r)]);
    if constexpr (kMirrored) {
      if (fast_) {
        if (const std::optional<Packed> v = encode(s)) {
          mirror_[slot] = *v;
        } else {
          force_generic_path();
        }
      }
    }
  }

  /// Advance every ring `k` interactions (each through its own stream). In
  /// word-kernel mode the rings advance in lockstep — one SIMD lane per
  /// ring (WordGroupDriver::run_rings_block); per-ring trajectories are
  /// bit-identical to per-ring advancement, rings share nothing.
  void run(std::uint64_t k) {
    if constexpr (kWordable) {
      if (fast_ && k > 0 && ring_count() > 0) {
        // Reusable [0, ring_count) index list — grown, never shrunk, so
        // campaigns interleaving many small run(k) blocks with faults pay
        // no per-call allocation.
        while (static_cast<int>(all_rings_.size()) < ring_count())
          all_rings_.push_back(static_cast<int>(all_rings_.size()));
        advance_rings_word(all_rings_, ring_count(), k);
        return;
      }
    }
    for (int r = 0; r < ring_count(); ++r) advance_ring(r, k);
  }

  /// Advance one ring `k` interactions (exact-offset scheduling, e.g. fault
  /// injection at a precise step). Throws std::out_of_range on a bad ring.
  void run_ring(int r, std::uint64_t k) { advance_ring(check_ring(r), k); }

  /// Per-ring Runner::run_until over the whole ensemble: for every ring,
  /// check `pred` up front, then run blocks of `check_every` (0 = every ~n)
  /// against a per-ring deadline of `max_steps` further interactions
  /// (saturated: UINT64_MAX never times out), retiring rings from a
  /// compacted active set as they hit the predicate or the deadline.
  /// Returns, per ring, the step count at the first satisfied check
  /// (exactly Runner::run_until's value) or npos on timeout.
  ///
  /// `pred_is_safe_set` declares that `pred` is P's safe set
  /// (ScenarioSpec::recovered_is_safe_set). Two shortcuts follow, neither
  /// of which moves a hit step where the declaration holds:
  ///   * census gate — every study protocol's safe set requires exactly one
  ///     leader, so a ring whose O(1) census RingClock::leader_count is not
  ///     1 fails the check without materializing its states or calling
  ///     `pred`;
  ///   * word check — in the word-kernel lane, a protocol with a word-form
  ///     safe set (HasWordSafeSet) has a ring with census 1 checked on its
  ///     slice of the u64 mirror, again without sync_ring or `pred`.
  /// Throws std::invalid_argument for a protocol without a leader census.
  template <typename Pred>
  [[nodiscard]] std::vector<std::uint64_t> run_until_each(
      Pred&& pred, std::uint64_t max_steps, std::uint64_t check_every = 0,
      bool pred_is_safe_set = false) {
    std::vector<int> rings(clocks_.size());
    for (std::size_t r = 0; r < rings.size(); ++r)
      rings[r] = static_cast<int>(r);
    std::vector<std::uint64_t> hits(clocks_.size(), npos);
    run_until_each(rings, pred, max_steps, check_every, hits,
                   pred_is_safe_set);
    return hits;
  }

  /// Subset form: only the rings listed in `rings` participate (the others
  /// do not advance). `hits` must span ring_count(); a participating ring's
  /// entry gets its hit step or npos, entries of non-participating rings
  /// are left untouched. Throws std::invalid_argument, in every build
  /// type, when `hits` has the wrong size (a short span would be written
  /// past its end) or a ring id is listed twice (the lanes would advance
  /// it once or twice per pass); std::out_of_range on a bad ring id.
  template <typename Pred>
  void run_until_each(std::vector<int> rings, Pred&& pred,
                      std::uint64_t max_steps, std::uint64_t check_every,
                      std::span<std::uint64_t> hits,
                      bool pred_is_safe_set = false) {
    if (hits.size() != clocks_.size())
      throw std::invalid_argument(
          "EnsembleRunner::run_until_each: hits spans " +
          std::to_string(hits.size()) + " rings, ensemble has " +
          std::to_string(clocks_.size()));
    if constexpr (!HasLeaderOutput<P>) {
      if (pred_is_safe_set)
        throw std::invalid_argument(
            "EnsembleRunner::run_until_each: safe-set declaration on a "
            "protocol without a leader census");
    }
    // Per-ring deadline, indexed by ring id (mirrors Runner::run_until's
    // saturated `steps + max_steps` computed at entry). Until the pre-check
    // sets it, a non-zero entry marks a ring id already listed.
    std::vector<std::uint64_t> deadline(clocks_.size(), 0);
    for (int r : rings) {
      std::uint64_t& seen = deadline[static_cast<std::size_t>(check_ring(r))];
      if (seen != 0)
        throw std::invalid_argument(
            "EnsembleRunner::run_until_each: ring " + std::to_string(r) +
            " listed twice");
      seen = 1;
    }
    if (check_every == 0)
      check_every = static_cast<std::uint64_t>(params_.n);
    const auto holds = [&](int r) -> bool {
      if (pred_is_safe_set) {
        if (clocks_[static_cast<std::size_t>(r)].leader_count != 1)
          return false;
        if constexpr (kWordable && HasWordSafeSet<P>) {
          if (fast_)
            return P::is_safe_words(
                {mirror_.data() + ring_offset(r),
                 static_cast<std::size_t>(params_.n)},
                layout_, params_);
        }
      }
      return pred(agents(r), params_);
    };
    // Pre-check: a ring already satisfying the predicate hits at its current
    // step without consuming any randomness.
    std::size_t w = 0;
    for (int r : rings) {
      const auto ri = static_cast<std::size_t>(r);
      if (holds(r)) {
        hits[ri] = clocks_[ri].steps;
        continue;
      }
      deadline[ri] = detail::run_deadline(clocks_[ri].steps, max_steps);
      rings[w++] = r;
    }
    rings.resize(w);

    std::vector<int> batch;  // word lane: rings owed a full block
    while (!rings.empty()) {
      // One pass: advance every active ring by min(check_every, remaining)
      // interactions, check, retire, compact. In word-kernel mode the rings
      // still owed a full check_every block (the common case away from
      // deadlines) advance in one cross-ring lockstep batch; everything
      // else goes through the per-ring advance_ring.
      batch.clear();
      for (int r : rings) {
        const auto ri = static_cast<std::size_t>(r);
        const std::uint64_t left = deadline[ri] - clocks_[ri].steps;
        if (word_kernel_mode() && left >= check_every)
          batch.push_back(r);
        else
          advance_ring(r, std::min(check_every, left));
      }
      if constexpr (kWordable) {
        if (!batch.empty())
          advance_rings_word(batch, static_cast<int>(batch.size()),
                             check_every);
      }
      w = 0;
      for (int r : rings) {
        const auto ri = static_cast<std::size_t>(r);
        if (holds(r)) {
          hits[ri] = clocks_[ri].steps;
          continue;
        }
        if (clocks_[ri].steps >= deadline[ri]) {
          hits[ri] = npos;  // timeout
          continue;
        }
        rings[w++] = r;
      }
      rings.resize(w);
    }
  }

 private:
  /// Either accelerated lane keeps a mirror of states_ (same layout): a
  /// 16-bit LUT index per agent, or a 64-bit word.
  static constexpr bool kMirrored = kPackable || kWordable;
  using Packed = std::conditional_t<kWordable, std::uint64_t, std::uint16_t>;

  /// Shared constructor tail: storage reservation and accelerator probing
  /// (the LUT build, or the ring-only word lane's layout checks).
  void init_modes(int reserve_rings) {
    if (reserve_rings > 0) {
      const auto r = static_cast<std::size_t>(reserve_rings);
      states_.reserve(r * static_cast<std::size_t>(params_.n));
      clocks_.reserve(r);
      rngs_.reserve(r);
    }
    if constexpr (kPackable) build_lut();
    if constexpr (kWordable) {
      layout_ = P::word_layout(params_);
      // WordGroupDriver's census reads the leader output straight off bit 0
      // of each word; a layout with the flag anywhere else stays generic
      // instead of corrupting the leader census.
      fast_ = layout_.fits() && P::word_leader(1, layout_) &&
              !P::word_leader(0, layout_);
      if (fast_) consts_ = P::make_word_consts(layout_);
    }
  }

  /// Mirror encoding of `s`, or nullopt when `s` is outside the lane's
  /// domain (it fails the pack/unpack round trip).
  [[nodiscard]] std::optional<Packed> encode(const State& s) const
    requires(kMirrored)
  {
    if constexpr (kWordable) {
      const std::uint64_t w = P::pack_word(s, layout_);
      if (!(P::unpack_word(w, layout_) == s)) return std::nullopt;
      return w;
    } else {
      const std::size_t ps = P::pack_state(s, params_);
      if (ps >= lut_states_ || !(P::unpack_state(ps, params_) == s))
        return std::nullopt;
      return static_cast<std::uint16_t>(ps);
    }
  }

  [[nodiscard]] State decode(Packed v) const
    requires(kMirrored)
  {
    if constexpr (kWordable) {
      return P::unpack_word(v, layout_);
    } else {
      return P::unpack_state(v, params_);
    }
  }

  /// Transition-table entry for one (initiator, responder) packed pair:
  /// packed successor states plus the exact census deltas the generic
  /// census_after would have computed. 8 bytes; the whole modk table is
  /// ~18 KiB and L1-resident.
  struct LutEntry {
    std::uint16_t pa = 0;
    std::uint16_t pb = 0;
    std::int8_t d_leader = 0;
    std::int8_t d_token = 0;
    std::uint8_t leader_changed = 0;
    std::uint8_t pad = 0;
  };
  static_assert(sizeof(LutEntry) == 8);

  [[nodiscard]] std::size_t ring_offset(int r) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(params_.n);
  }

  /// Release-build index checks of the public accessors.
  [[nodiscard]] int check_ring(int r) const {
    if (r < 0 || r >= ring_count())
      throw std::out_of_range("EnsembleRunner: ring " + std::to_string(r) +
                              " outside [0, " + std::to_string(ring_count()) +
                              ")");
    return r;
  }
  [[nodiscard]] std::size_t check_agent(int i) const {
    if (i < 0 || i >= params_.n)
      throw std::out_of_range("EnsembleRunner: agent " + std::to_string(i) +
                              " outside [0, " + std::to_string(params_.n) +
                              ")");
    return static_cast<std::size_t>(i);
  }

  [[nodiscard]] const RingClock& clock(int r) const {
    return clocks_[static_cast<std::size_t>(check_ring(r))];
  }

  /// Enumerate the pair-transition table through the same P::apply and
  /// census predicates the generic path runs, validating that every state
  /// round-trips the packing and every transition stays in the enumerated
  /// domain. Any violation leaves the ensemble on the generic path.
  void build_lut()
    requires(kPackable)
  {
    const std::size_t S = P::num_states(params_);
    if (S == 0 || S > 0xFFFF || S * S > kMaxLutPairs) return;
    std::vector<State> domain(S);
    for (std::size_t v = 0; v < S; ++v) {
      domain[v] = P::unpack_state(v, params_);
      if (P::pack_state(domain[v], params_) != v) return;  // not canonical
    }
    lut_.resize(S * S);
    for (std::size_t sa = 0; sa < S; ++sa) {
      for (std::size_t sb = 0; sb < S; ++sb) {
        State a = domain[sa];
        State b = domain[sb];
        bool la = false, lb = false;
        int ta = 0, tb = 0;
        if constexpr (HasLeaderOutput<P>) {
          la = P::is_leader(a, params_);
          lb = P::is_leader(b, params_);
        }
        if constexpr (HasTokenCensus<P>) {
          ta = P::has_token(a, params_) ? 1 : 0;
          tb = P::has_token(b, params_) ? 1 : 0;
        }
        P::apply(a, b, params_);
        const std::size_t pa = P::pack_state(a, params_);
        const std::size_t pb = P::pack_state(b, params_);
        if (pa >= S || pb >= S || !(P::unpack_state(pa, params_) == a) ||
            !(P::unpack_state(pb, params_) == b)) {
          lut_.clear();  // domain not closed under apply
          return;
        }
        LutEntry& e = lut_[sa * S + sb];
        e.pa = static_cast<std::uint16_t>(pa);
        e.pb = static_cast<std::uint16_t>(pb);
        if constexpr (HasLeaderOutput<P>) {
          const bool la2 = P::is_leader(a, params_);
          const bool lb2 = P::is_leader(b, params_);
          e.d_leader = static_cast<std::int8_t>(
              static_cast<int>(la2) - static_cast<int>(la) +
              static_cast<int>(lb2) - static_cast<int>(lb));
          e.leader_changed = la != la2 || lb != lb2;
        }
        if constexpr (HasTokenCensus<P>) {
          e.d_token = static_cast<std::int8_t>(
              (P::has_token(a, params_) ? 1 : 0) - ta +
              (P::has_token(b, params_) ? 1 : 0) - tb);
        }
      }
    }
    lut_states_ = S;
    fast_ = true;
  }

  /// Materialize ring r's State block from the mirror if stale. dirty_ is
  /// only ever set by the accelerated hot loops and force_generic_path
  /// syncs every ring before dropping the mirror, so a dirty ring always
  /// has a live mirror.
  void sync_ring(int r) const {
    if constexpr (kMirrored) {
      const auto ri = static_cast<std::size_t>(r);
      if (!dirty_[ri]) return;
      const std::size_t off = ring_offset(r);
      for (std::size_t i = 0; i < static_cast<std::size_t>(params_.n); ++i)
        states_[off + i] = decode(mirror_[off + i]);
      dirty_[ri] = 0;
    }
  }

  void advance_ring(int r, std::uint64_t k) {
    if (k == 0) return;
    if constexpr (kMirrored) {
      if (fast_) {
        if constexpr (kWordable) {
          advance_ring_word(r, k);
        } else {
          advance_ring_packed(r, k);
        }
        return;
      }
    }
    const auto ri = static_cast<std::size_t>(r);
    Engine::run_block(states_.data() + ring_offset(r), topo_, params_, sched_,
                      rngs_[ri], loss_rngs_[ri], clocks_[ri], k);
  }

  /// Packed block: one table load per interaction on the u16 mirror; the
  /// census updates replay exactly what census_after computes (the deltas
  /// were precomputed by it, entry by entry). States go stale until the next
  /// sync_ring. Locals and [[gnu::flatten]] for the reasons given at
  /// InteractionEngine::run_block.
  [[gnu::flatten]] void advance_ring_packed(int r, std::uint64_t k)
    requires(kPackable)
  {
    const auto ri = static_cast<std::size_t>(r);
    std::uint16_t* const packed = mirror_.data() + ring_offset(r);
    const LutEntry* const lut = lut_.data();
    const std::size_t S = lut_states_;
    const std::uint64_t bound = sched_.bound();
    const std::uint64_t threshold = sched_.threshold();
    Xoshiro256pp rng = rngs_[ri];
    RingClock clk = clocks_[ri];
    const Topo topo = topo_;
    for (std::uint64_t i = 0; i < k; ++i) {
      const int arc =
          static_cast<int>(rng.bounded_with_threshold(bound, threshold));
      const ArcEndpoints e = topo.endpoints(arc);
      const std::size_t pa = packed[e.initiator];
      const std::size_t pb = packed[e.responder];
      const LutEntry& en = lut[pa * S + pb];
      packed[e.initiator] = en.pa;
      packed[e.responder] = en.pb;
      if constexpr (HasLeaderOutput<P>) {
        clk.leader_count += en.d_leader;
        if (en.leader_changed != 0) clk.last_leader_change = clk.steps + 1;
        if (clk.leader_count > 0) {
          clk.leaderless_since = RingClock::npos;
        } else if (clk.leaderless_since == RingClock::npos) {
          clk.leaderless_since = clk.steps + 1;
        }
        if constexpr (HasTokenCensus<P>) clk.token_count += en.d_token;
      }
      ++clk.steps;
    }
    rngs_[ri] = rng;
    clocks_[ri] = clk;
    dirty_[ri] = 1;
  }

  /// Kernel-lane block: the single-ring grouped word-kernel driver
  /// (WordGroupDriver::run_block) on this ring's slice of the u64 mirror —
  /// the same entry point the cross-ring driver uses for leftover rings.
  /// States go stale until the next sync_ring.
  void advance_ring_word(int r, std::uint64_t k)
    requires(kWordable)
  {
    const auto ri = static_cast<std::size_t>(r);
    WordGroupDriver<P>::run_block(mirror_.data() + ring_offset(r), params_.n,
                                  sched_.bound(), sched_.threshold(),
                                  rngs_[ri], clocks_[ri], consts_, k);
    dirty_[ri] = 1;
  }

  /// Cross-ring lockstep: every listed ring advances `k` interactions with
  /// one SIMD lane per ring (no disjointness proofs — rings share
  /// nothing). Bit-identical per ring to advance_ring_word. The idle lanes
  /// of a padded trailing group run on `idle_words_`, seeded at first use
  /// with copies of ring 0's words (in-domain by the round-trip check, and
  /// the kernel keeps them so); what they compute is never read.
  void advance_rings_word(const std::vector<int>& rings, int nrings,
                          std::uint64_t k)
    requires(kWordable)
  {
    const auto n = static_cast<std::size_t>(params_.n);
    if (idle_words_.empty()) {
      idle_words_.reserve(WordGroupDriver<P>::kMaxIdleLanes * n);
      for (int j = 0; j < WordGroupDriver<P>::kMaxIdleLanes; ++j)
        idle_words_.insert(idle_words_.end(), mirror_.begin(),
                           mirror_.begin() + static_cast<std::ptrdiff_t>(n));
    }
    WordGroupDriver<P>::run_rings_block(
        mirror_.data(), n, rings.data(), nrings, params_.n, sched_.bound(),
        sched_.threshold(), rngs_.data(), clocks_.data(), consts_, k,
        idle_words_.data());
    for (int i = 0; i < nrings; ++i)
      dirty_[static_cast<std::size_t>(
          rings[static_cast<std::size_t>(i)])] = 1;
  }

  Params params_;
  Topo topo_;  ///< after params_: the (Params, int) ctor builds it from .n
  detail::ArcScheduler sched_;  ///< after topo_: built from its arc count
  std::uint64_t oracle_delay_ = 0;
  std::vector<std::uint64_t> seeds_;     ///< per-ring origin seeds
  std::vector<Xoshiro256pp> loss_rngs_;  ///< per-ring omission streams
  /// Ring r's states at [r*n, (r+1)*n). On an accelerated lane this block
  /// is a lazily refreshed materialization of `mirror_` (see `dirty_`),
  /// hence mutable: accessors are logically const.
  mutable std::vector<State> states_;
  std::vector<RingClock> clocks_;   ///< parallel to rings
  std::vector<Xoshiro256pp> rngs_;  ///< parallel to rings
  mutable std::vector<std::uint8_t> dirty_;  ///< states_ stale vs mirror_
  std::vector<Packed> mirror_;  ///< accelerated lane's copy of states_
  bool fast_ = false;           ///< an accelerated lane drives the hot loop
  std::vector<LutEntry> lut_;   ///< S*S pair table (LUT lane)
  std::size_t lut_states_ = 0;
  WordLayout layout_{};             ///< valid only in word-kernel mode
  WordConsts consts_{};             ///< kernel constants (word-kernel mode)
  /// Parking slices for the idle lanes of a padded lockstep group
  /// (WordGroupDriver::kMaxIdleLanes * n words, allocated at first use).
  std::vector<std::uint64_t> idle_words_;
  std::vector<int> all_rings_;      ///< reusable [0, ring_count) id list
};

/// Mutable view of one *running* ring — the engine-agnostic surface fault
/// injectors need (analysis/scenario.hpp's ScenarioSpec::inject). Wraps
/// either a standalone Runner or one ring of an EnsembleRunner, so the same
/// injection code serves both the per-trial reference path and the
/// trial-batched campaign path. Two pointers wide; pass by value.
template <typename P, typename Topo = RingTopology>
class RingView {
 public:
  using State = typename P::State;
  using Params = typename P::Params;

  explicit RingView(Runner<P, Topo>& runner) noexcept : runner_(&runner) {}
  RingView(EnsembleRunner<P, Topo>& ensemble, int ring) noexcept
      : ensemble_(&ensemble), ring_(ring) {}

  [[nodiscard]] const Params& params() const noexcept {
    return runner_ != nullptr ? runner_->params() : ensemble_->params();
  }
  [[nodiscard]] int n() const noexcept { return params().n; }
  [[nodiscard]] std::span<const State> agents() const {
    return runner_ != nullptr ? runner_->agents() : ensemble_->agents(ring_);
  }
  [[nodiscard]] std::uint64_t steps() const {
    return runner_ != nullptr ? runner_->steps() : ensemble_->steps(ring_);
  }

  /// Fault injection (delta census in both engines).
  void set_agent(int i, const State& s) {
    if (runner_ != nullptr) {
      runner_->set_agent(i, s);
    } else {
      ensemble_->set_agent(ring_, i, s);
    }
  }

 private:
  Runner<P, Topo>* runner_ = nullptr;
  EnsembleRunner<P, Topo>* ensemble_ = nullptr;
  int ring_ = 0;
};

}  // namespace ppsim::core
