// The constexpr clamp-freedom certifier (pl/packed_certify.hpp): the
// committed bench regimes certify, the certification is *sensitive* (a
// single field widened one past its domain — exactly what a fault writes —
// breaks it, for the documented structural reason), and the abstraction is
// sound against the real kernel: every field of every randomized
// apply_word output lies inside its certified interval, and the output
// word round-trips unpack/pack bit-identically, i.e. no clamp fired.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "core/stream_tags.hpp"
#include "pl/packed_certify.hpp"
#include "pl/packed_protocol.hpp"
#include "pl/packed_state.hpp"
#include "pl/params.hpp"

namespace ppsim::pl {
namespace {

// --- Certified regimes (runtime mirror of the header's static_asserts) ----

TEST(PackedCertify, CommittedBenchRegimesCertifyClampFree) {
  for (const auto& [n, c1] : {std::pair{16, 4}, {64, 4}, {256, 4},
                              {1024, 4}, {16384, 4}, {16, 3}, {64, 1},
                              {65536, 32}}) {
    const auto p = PlParams::make(n, c1);
    const auto cert = certify_kernel(p);
    EXPECT_TRUE(cert.clamp_free()) << "n=" << n << " c1=" << c1;
    // The certificate is informative, not just boolean: spot-check the
    // intervals the proof derived. The responder's hits span the full
    // domain (the line-41/44/48 zeroings reach 0, the hits_s0/hits_n
    // keeps reach psi)...
    EXPECT_EQ(cert.r_hits.out.lo, 0);
    EXPECT_EQ(cert.r_hits.out.hi, p.psi);
    // ...the initiator's hits field is cleared (Algorithm 4 line 36)...
    EXPECT_EQ(cert.l_hits.out.lo, 0);
    EXPECT_EQ(cert.l_hits.out.hi, 0);
    // ...and token positions span the full biased domain (creation writes
    // 2psi-1, delivery turn-around writes 0).
    EXPECT_EQ(cert.tok_pos.out.lo, 0);
    EXPECT_EQ(cert.tok_pos.out.hi, 2LL * p.psi - 1);
  }
}

// --- Sensitivity: the proof is not vacuous ---------------------------------
//
// Each widening below is one representable out-of-domain value in one
// field — the exact state a fault can leave in the scalar struct. In every
// case certification must fail, and fail for the structural reason the
// kernel's trick actually depends on.

TEST(PackedCertify, WidenedHitsBreaksTheEqualityCap) {
  const auto p = PlParams::make(1024, 4);
  auto in = AbstractInputs::in_domain(p);
  in.hits.hi = p.psi + 1;  // min(hits+1, psi) via equality needs hits<=psi
  const auto cert = certify_kernel(p, in);
  EXPECT_FALSE(cert.hits_cap_premise);
  EXPECT_FALSE(cert.clamp_free());
}

TEST(PackedCertify, WidenedClockBreaksTheEqualityCap) {
  const auto p = PlParams::make(1024, 4);
  auto in = AbstractInputs::in_domain(p);
  in.clock.hi = p.kappa_max + 1;
  const auto cert = certify_kernel(p, in);
  EXPECT_FALSE(cert.clock_cap_premise);
  EXPECT_FALSE(cert.clamp_free());
}

TEST(PackedCertify, WidenedDistBreaksTheWrapSelect) {
  // dist_bits = ceil(log2 2psi) leaves representable headroom above the
  // domain only when 2psi is not a power of two — psi = 5 (n = 17..32 at
  // bits_for(2*5)=4, mask 15 > 9) gives such a regime.
  const auto p = PlParams::make(20, 4);
  ASSERT_GT(PackedLayout::make(p).dist_mask, 2ULL * p.psi - 1);
  auto in = AbstractInputs::in_domain(p);
  in.dist.hi = 2LL * p.psi;  // (dist+1) mod 2psi catches exactly 2psi
  const auto cert = certify_kernel(p, in);
  EXPECT_FALSE(cert.dist_wrap_complete);
  EXPECT_FALSE(cert.clamp_free());
}

// --- Soundness against the real kernel -------------------------------------

PlState random_domain_state(core::Xoshiro256pp& rng, const PlParams& p) {
  const auto draw = [&](int lo, int hi) {
    return lo + static_cast<int>(
                    rng.bounded(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  PlState s;
  s.leader = static_cast<std::uint8_t>(draw(0, 1));
  s.b = static_cast<std::uint8_t>(draw(0, 1));
  s.last = static_cast<std::uint8_t>(draw(0, 1));
  s.shield = static_cast<std::uint8_t>(draw(0, 1));
  s.signal_b = static_cast<std::uint8_t>(draw(0, 1));
  s.bullet = static_cast<std::uint8_t>(draw(0, 2));
  s.dist = static_cast<std::uint16_t>(draw(0, 2 * p.psi - 1));
  s.hits = static_cast<std::uint8_t>(draw(0, p.psi));
  s.clock = static_cast<std::uint16_t>(draw(0, p.kappa_max));
  s.signal_r = static_cast<std::uint16_t>(draw(0, p.kappa_max));
  for (Token* t : {&s.token_b, &s.token_w}) {
    t->pos = static_cast<std::int8_t>(draw(1 - p.psi, p.psi));
    t->value = static_cast<std::uint8_t>(draw(0, 1));
    t->carry = static_cast<std::uint8_t>(draw(0, 1));
  }
  return s;
}

void expect_state_within_cert(const PlState& s, const PlParams& p,
                              const KernelCert& cert, bool initiator) {
  const long long bias = p.psi - 1;
  const auto& dist = initiator ? cert.l_dist : cert.r_dist;
  const auto& hits = initiator ? cert.l_hits : cert.r_hits;
  const auto& clock = initiator ? cert.l_clock : cert.r_clock;
  const auto& sigr = initiator ? cert.l_sigr : cert.r_sigr;
  EXPECT_TRUE(dist.out.contains(s.dist));
  EXPECT_TRUE(hits.out.contains(s.hits));
  EXPECT_TRUE(clock.out.contains(s.clock));
  EXPECT_TRUE(sigr.out.contains(s.signal_r));
  EXPECT_TRUE(cert.tok_pos.out.contains(s.token_b.pos + bias));
  EXPECT_TRUE(cert.tok_pos.out.contains(s.token_w.pos + bias));
  EXPECT_TRUE(cert.bullet.out.contains(s.bullet));
  for (int f : {int{s.leader}, int{s.b}, int{s.last}, int{s.shield},
                int{s.signal_b}})
    EXPECT_TRUE(cert.flags.out.contains(f));
}

TEST(PackedCertify, RandomizedKernelOutputsStayInsideCertifiedIntervals) {
  // End-to-end soundness probe: in-domain inputs -> apply_word -> every
  // output field inside its certified interval, every output word
  // round-trips with no clamp firing. Covers a c1 = 4 regime, the
  // flagship, and a small-c1 regime.
  for (const auto& [n, c1] : {std::pair{16, 4}, {64, 1}, {1024, 4}}) {
    const auto p = PlParams::make(n, c1);
    const auto lay = PackedLayout::make(p);
    ASSERT_TRUE(lay.fits());
    const auto cert = certify_kernel(p);
    ASSERT_TRUE(cert.clamp_free());
    core::Xoshiro256pp rng(core::derive_seed(
        2026, core::streams::kConfig,
        static_cast<std::uint64_t>(n * 64 + c1)));
    for (int iter = 0; iter < 4000; ++iter) {
      const PlState l_in = random_domain_state(rng, p);
      const PlState r_in = random_domain_state(rng, p);
      ASSERT_TRUE(in_word_domain(l_in, lay));
      ASSERT_TRUE(in_word_domain(r_in, lay));
      std::uint64_t wl = pack_word(l_in, lay);
      std::uint64_t wr = pack_word(r_in, lay);
      apply_word(wl, wr, lay);
      const PlState l_out = unpack_word(wl, lay);
      const PlState r_out = unpack_word(wr, lay);
      // Clamp-freedom, observed: the outputs are in domain and re-pack
      // bit-identically (a fired clamp would break the round trip).
      ASSERT_TRUE(in_word_domain(l_out, lay));
      ASSERT_TRUE(in_word_domain(r_out, lay));
      ASSERT_EQ(pack_word(l_out, lay), wl);
      ASSERT_EQ(pack_word(r_out, lay), wr);
      expect_state_within_cert(l_out, p, cert, /*initiator=*/true);
      expect_state_within_cert(r_out, p, cert, /*initiator=*/false);
    }
  }
}

}  // namespace
}  // namespace ppsim::pl
