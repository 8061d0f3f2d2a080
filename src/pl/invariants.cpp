#include "pl/invariants.hpp"

#include <algorithm>
#include <cstdint>

#include "core/ring.hpp"

namespace ppsim::pl {

using core::ring_add;
using core::ring_distance;

std::vector<int> leader_positions(Config c) {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(c.size()); ++i)
    if (c[static_cast<std::size_t>(i)].leader == 1) out.push_back(i);
  return out;
}

int count_leaders(Config c) {
  int k = 0;
  for (const PlState& s : c) k += s.leader == 1 ? 1 : 0;
  return k;
}

bool satisfies_condition1(Config c, const PlParams& p) {
  const int n = static_cast<int>(c.size());
  for (int i = 0; i < n; ++i) {
    const PlState& cur = c[static_cast<std::size_t>(i)];
    const PlState& left = c[static_cast<std::size_t>(ring_add(i, -1, n))];
    const int expected =
        cur.leader == 1 ? 0 : (static_cast<int>(left.dist) + 1) % p.two_psi();
    if (static_cast<int>(cur.dist) != expected) return false;
  }
  return true;
}

bool is_border(const PlState& s, const PlParams& p) {
  return static_cast<int>(s.dist) == 0 || static_cast<int>(s.dist) == p.psi;
}

std::vector<SegmentView> decompose_segments(Config c, const PlParams& p) {
  const int n = static_cast<int>(c.size());
  std::vector<int> borders;
  for (int i = 0; i < n; ++i)
    if (is_border(c[static_cast<std::size_t>(i)], p)) borders.push_back(i);
  std::vector<SegmentView> out;
  out.reserve(borders.size());
  for (std::size_t bi = 0; bi < borders.size(); ++bi) {
    const int start = borders[bi];
    const int next = borders[(bi + 1) % borders.size()];
    int length = ring_distance(start, next, n);
    if (length == 0) length = n;  // single border: one segment, whole ring
    SegmentView seg;
    seg.start = start;
    seg.length = length;
    unsigned long long id = 0;
    for (int j = length - 1; j >= 0; --j) {
      id = id * 2 + c[static_cast<std::size_t>(ring_add(start, j, n))].b;
      if (id > (1ULL << 62)) {  // saturate: longer than any real segment
        id = 1ULL << 62;
        break;
      }
    }
    seg.id = id;
    out.push_back(seg);
  }
  return out;
}

bool satisfies_condition2(Config c, const PlParams& p) {
  const auto segments = decompose_segments(c, p);
  if (segments.empty()) return true;  // no borders => no segments: vacuous
  const int n = static_cast<int>(c.size());
  const auto modulus = static_cast<unsigned long long>(p.id_modulus());
  for (std::size_t si = 0; si < segments.size(); ++si) {
    const SegmentView& seg = segments[si];
    const SegmentView& prev =
        segments[(si + segments.size() - 1) % segments.size()];
    const int after = ring_add(seg.start, seg.length, n);
    const bool exempt =
        c[static_cast<std::size_t>(seg.start)].leader == 1 ||
        c[static_cast<std::size_t>(after)].leader == 1;
    if (exempt) continue;
    if (seg.id != (prev.id + 1) % modulus) return false;
  }
  return true;
}

bool is_perfect(Config c, const PlParams& p) {
  return satisfies_condition1(c, p) && satisfies_condition2(c, p);
}

bool token_valid(const PlState& host, const Token& t, int d,
                 const PlParams& p) {
  return t.exists() && !detail::invalid_token(host, t, d, p);
}

namespace {

/// Resolve the working-pair geometry of a valid token in the C_DL layout.
/// Returns false when the geometry does not embed in the ring without
/// wrapping past the leader.
struct TokenGeometry {
  int pair_start = 0;  ///< absolute index of the border opening S_i
  int round = 0;       ///< x: the round the token is in
};

bool resolve_geometry(Config c, const PlParams& p, int host, const Token& t,
                      int d, int leader_pos, TokenGeometry& g) {
  const int n = static_cast<int>(c.size());
  const PlState& h = c[static_cast<std::size_t>(host)];
  if (!token_valid(h, t, d, p)) return false;
  const int tau =
      detail::mod_2psi(static_cast<int>(h.dist) + t.pos + d, p.two_psi());
  int target_offset_in_pair;  // offset of the target from the pair start
  if (t.pos > 0) {
    g.round = tau - p.psi;                       // x in [0, psi-1]
    target_offset_in_pair = p.psi + g.round;
  } else {
    g.round = tau - 1;                           // x in [0, psi-2]
    target_offset_in_pair = g.round + 1;
  }
  const int target_abs = ring_add(host, t.pos, n);
  g.pair_start = ring_add(target_abs, -target_offset_in_pair, n);

  // The pair must sit at a segment boundary of the right color and contain
  // the host without wrapping past the leader.
  const int rel_start = ring_distance(leader_pos, g.pair_start, n);
  if (rel_start % p.psi != 0) return false;
  if ((rel_start % p.two_psi()) != d) return false;
  const int host_off = ring_distance(leader_pos, host, n) - rel_start;
  if (host_off < 0 || host_off > p.two_psi() - 1) return false;
  const int tgt_off = ring_distance(leader_pos, target_abs, n) - rel_start;
  if (tgt_off != target_offset_in_pair) return false;
  return true;
}

}  // namespace

bool token_correct(Config c, const PlParams& p, int host, bool black,
                   int leader_pos) {
  const int n = static_cast<int>(c.size());
  const PlState& h = c[static_cast<std::size_t>(host)];
  const Token& t = black ? h.token_b : h.token_w;
  const int d = black ? 0 : p.psi;
  TokenGeometry g;
  if (!resolve_geometry(c, p, host, t, d, leader_pos, g)) return false;

  // j = index of the first 0 bit of S_i (psi if all ones).
  int j = p.psi;
  for (int idx = 0; idx < p.psi; ++idx) {
    if (c[static_cast<std::size_t>(ring_add(g.pair_start, idx, n))].b == 0) {
      j = idx;
      break;
    }
  }
  const int x = g.round;
  // During round x the token carries the increment's result bit x and the
  // carry *after* consuming bit x:
  //   value = b_x XOR carry_x,   carry-field = carry_{x+1},
  // with carry_x = [x <= j] and carry_{x+1} = [x < j]. (Def. 4.3 with the
  // carry-phase fix; forced by lines 13 and 27, see DESIGN.md §2.1(5).)
  const int b_x =
      c[static_cast<std::size_t>(ring_add(g.pair_start, x, n))].b;
  const int carry_x = x <= j ? 1 : 0;
  const int carry_next = x < j ? 1 : 0;
  return static_cast<int>(t.carry) == carry_next &&
         static_cast<int>(t.value) == (b_x ^ carry_x);
}

bool live_bullet_peaceful(Config c, int i) {
  const int n = static_cast<int>(c.size());
  // Walk left from u_i to the nearest leader; every agent on the way
  // (including u_i and the leader) must carry no bullet-absence signal, and
  // the leader must be shielded.
  for (int jj = 0; jj < n; ++jj) {
    const int idx = ring_add(i, -jj, n);
    const PlState& s = c[static_cast<std::size_t>(idx)];
    if (s.signal_b != 0) return false;
    if (s.leader == 1) return s.shield == 1;
  }
  return false;  // no leader: d_LL(i) = infinity, not peaceful
}

bool in_cpb(Config c) {
  if (count_leaders(c) < 1) return false;
  for (int i = 0; i < static_cast<int>(c.size()); ++i)
    if (c[static_cast<std::size_t>(i)].bullet == common::kLiveBullet &&
        !live_bullet_peaceful(c, i))
      return false;
  return true;
}

bool in_cdl_layout(Config c, const PlParams& p, int leader_pos) {
  const int n = static_cast<int>(c.size());
  const int last_from = p.psi * (p.zeta() - 1);
  for (int i = 0; i < n; ++i) {
    const PlState& s = c[static_cast<std::size_t>(ring_add(leader_pos, i, n))];
    if (static_cast<int>(s.dist) != i % p.two_psi()) return false;
    const bool want_last = i >= last_from;
    if ((s.last == 1) != want_last) return false;
  }
  return true;
}

namespace {

/// Which S_PL condition a configuration violates (see safe_core).
enum class Failure : std::uint8_t {
  kNone,
  kLeaderCount,  ///< no leader, or a second one
  kLayout,       ///< dist/last differ from the C_DL layout
  kBullet,       ///< a live bullet that is not peaceful
  kSegmentIds,   ///< iota(S_{i+1}) != iota(S_i) + 1 for some i <= zeta-3
  kLastToken,    ///< a token hosted in the last segment
  kBlackToken,   ///< a black token that is invalid or incorrect
  kWhiteToken,   ///< a white token that is invalid or incorrect
};

struct CoreVerdict {
  Failure failure = Failure::kNone;
  int agent = -1;  ///< absolute index of the offending agent
};

/// v mod m by compare: one conditional add and subtract in the common
/// range [-m, 2m), a loop beyond it (out-of-domain token positions).
[[nodiscard]] int wrap(int v, int m) noexcept {
  if (v >= -m && v < 2 * m) [[likely]] {
    v += v < 0 ? m : 0;
    return v >= m ? v - m : v;
  }
  while (v >= m) v -= m;
  while (v < 0) v += m;
  return v;
}

// The agent views safe_core walks. An agent exposes exactly the reads S_PL
// makes, with the scalar struct's semantics for out-of-domain values
// (leader == 2 is not a leader, b == 2 weighs 2 in a segment ID).

/// One agent of a PlState configuration (is_safe, check_safe).
struct StateAgent {
  const PlState& s;
  [[nodiscard]] bool leader() const noexcept { return s.leader == 1; }
  [[nodiscard]] unsigned b() const noexcept { return s.b; }
  [[nodiscard]] bool last() const noexcept { return s.last == 1; }
  [[nodiscard]] bool shield() const noexcept { return s.shield == 1; }
  [[nodiscard]] bool signal() const noexcept { return s.signal_b != 0; }
  [[nodiscard]] bool live_bullet() const noexcept {
    return s.bullet == common::kLiveBullet;
  }
  [[nodiscard]] int dist() const noexcept { return s.dist; }
  [[nodiscard]] const Token& token_b() const noexcept { return s.token_b; }
  [[nodiscard]] const Token& token_w() const noexcept { return s.token_w; }
  [[nodiscard]] bool any_token() const noexcept {
    return s.token_b.exists() || s.token_w.exists();
  }
};

struct StateAgents {
  Config c;
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(c.size());
  }
  [[nodiscard]] StateAgent operator[](int i) const noexcept {
    return {c[static_cast<std::size_t>(i)]};
  }
};

/// One agent of the packed mirror (is_safe_words): every read straight off
/// the word's bits, the same values unpack_word would produce.
struct WordAgent {
  std::uint64_t w;
  const PackedLayout& l;
  [[nodiscard]] bool leader() const noexcept { return (w & 1) != 0; }
  [[nodiscard]] unsigned b() const noexcept {
    return static_cast<unsigned>((w >> 1) & 1);
  }
  [[nodiscard]] bool last() const noexcept { return ((w >> 2) & 1) != 0; }
  [[nodiscard]] bool shield() const noexcept { return ((w >> 3) & 1) != 0; }
  [[nodiscard]] bool signal() const noexcept { return ((w >> 4) & 1) != 0; }
  [[nodiscard]] bool live_bullet() const noexcept {
    return ((w >> 5) & 3) == static_cast<std::uint64_t>(common::kLiveBullet);
  }
  [[nodiscard]] int dist() const noexcept {
    return static_cast<int>((w >> l.dist_shift) & l.dist_mask);
  }
  [[nodiscard]] Token token_b() const noexcept { return token(l.tokb_shift); }
  [[nodiscard]] Token token_w() const noexcept { return token(l.tokw_shift); }
  [[nodiscard]] bool any_token() const noexcept {
    // A token exists iff its biased position is not bot's psi - 1.
    const auto bot = static_cast<std::uint64_t>(l.psi - 1);
    return ((w >> l.tokb_shift) & l.dist_mask) != bot ||
           ((w >> l.tokw_shift) & l.dist_mask) != bot;
  }

 private:
  [[nodiscard]] Token token(unsigned shift) const noexcept {
    const std::uint64_t f = w >> shift;
    return Token{
        static_cast<std::int8_t>(static_cast<int>(f & l.dist_mask) -
                                 (l.psi - 1)),
        static_cast<std::uint8_t>((f >> l.dist_bits) & 1),
        static_cast<std::uint8_t>((f >> (l.dist_bits + 1)) & 1)};
  }
};

struct WordAgents {
  std::span<const std::uint64_t> words;
  const PackedLayout& l;
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(words.size());
  }
  [[nodiscard]] WordAgent operator[](int i) const noexcept {
    return {words[static_cast<std::size_t>(i)], l};
  }
};

/// The ring seen from its first leader k: offset o is agent k + o.
template <typename View>
struct LeaderWalk {
  const View& v;
  int n = 0;
  int k = 0;
  int psi = 0;
  bool shielded = false;  ///< the leader's shield (bullet peacefulness)

  [[nodiscard]] int index(int o) const noexcept {
    const int i = k + o;
    return i >= n ? i - n : i;
  }
  [[nodiscard]] auto at(int o) const noexcept { return v[index(o)]; }
};

/// token_correct (Def. 4.3) of the token `t` of colour offset `d` hosted at
/// offset `o`, inside the segment opening at offset `seg` (index
/// `seg_index`), on a ring whose C_DL layout and segment IDs are verified.
/// `j_cur` / `j_prev` are the first-zero bit indices of that segment and the
/// one before. With the layout verified, resolve_geometry's conditions
/// reduce to: the pair start, target minus tau, is one of those two
/// segment borders and has the token's colour (even segment index for
/// black). Same verdict as token_correct, in O(1).
template <typename View>
[[nodiscard]] bool token_ok(const LeaderWalk<View>& w, int o, const Token& t,
                            int d, int seg, int seg_index, int j_cur,
                            int j_prev) noexcept {
  const int psi = w.psi;
  const int pos = t.pos;
  const int tau = wrap(w.at(o).dist() + pos + d, 2 * psi);
  const bool right = pos > 0;
  const int start = wrap(o + pos, w.n) - tau;
  const bool in_seg = start == seg;
  const bool ok =
      (right ? tau >= psi : (tau >= 1 && tau <= psi - 1)) &&  // Def. 3.3
      (in_seg || (start == seg - psi && seg > 0)) &&
      ((seg_index & 1) ^ (in_seg ? 0 : 1)) == (d != 0 ? 1 : 0);
  if (!ok) return false;
  const int x = right ? tau - psi : tau - 1;  // the round
  const int j = in_seg ? j_cur : j_prev;
  const auto b_x = static_cast<int>(w.at(start + x).b());
  // Round x carries b_x XOR [x <= j] and the carry [x < j] (token_correct).
  return static_cast<int>(t.carry) == (x < j ? 1 : 0) &&
         static_cast<int>(t.value) == (b_x ^ (x <= j ? 1 : 0));
}

/// The first agent of a segment that fails the leader, layout or bullet
/// condition, given `signal` = a bullet-absence signal lies before it.
template <typename View>
[[gnu::cold]] CoreVerdict first_agent_failure(const LeaderWalk<View>& w,
                                              int seg, int len, bool in_last,
                                              int base_dist,
                                              bool signal) noexcept {
  for (int q = 0; q < len; ++q) {
    const int o = seg + q;
    const auto a = w.at(o);
    if (o > 0 && a.leader()) return {Failure::kLeaderCount, w.index(o)};
    if (a.dist() != base_dist + q || a.last() != in_last)
      return {Failure::kLayout, w.index(o)};
    signal = signal || a.signal();
    if (a.live_bullet() && (signal || !w.shielded))
      return {Failure::kBullet, w.index(o)};
  }
  return {};
}

/// The S_PL predicate (Def. 4.6) without allocation or division, walking
/// segment by segment from the first leader (segment s holds offsets
/// [s*psi, (s+1)*psi), so C_DL's dist is s's base, 0 or psi, plus the
/// position in it). Pass 1 folds, per segment and without branching per
/// agent: a second leader, the dist/last layout, bullet peacefulness (one
/// prefix scan of signal_b from the leader: a live bullet is peaceful iff
/// the leader is shielded and no signal lies between them) and the segment
/// ID; then checks the ID chain and tokens in the last segment. Pass 2,
/// reached only when all of that holds, checks every token in O(1) with
/// each segment's first-zero bit computed once. Same verdict as the
/// condition-by-condition composition (the differential test under
/// tests/pl/ pins it); the reported failure is the first in that order.
///
/// One walk for every representation: `View` is StateAgents (the scalar
/// structs) or WordAgents (the packed mirror), which read the same field
/// values, so is_safe_words(pack(c)) == is_safe(c) on every in-domain c.
template <typename View>
[[nodiscard]] CoreVerdict safe_core(const View& v, const PlParams& p) noexcept {
  const int n = v.size();
  int k = 0;
  while (k < n && !v[k].leader()) ++k;
  if (k == n) return {Failure::kLeaderCount, -1};
  const int psi = p.psi;
  const LeaderWalk<View> w{v, n, k, psi, v[k].shield()};
  const int last_from = psi * (p.zeta() - 1);
  const auto id_mask = static_cast<unsigned long long>(p.id_modulus()) - 1;

  bool signal = false;
  bool tokens = false;
  unsigned long long prev_id = 0;
  for (int seg = 0, s = 0; seg < n; seg += psi, ++s) {
    const bool in_last = seg >= last_from;
    const int len = in_last ? n - seg : psi;
    const int base_dist = (s & 1) != 0 ? psi : 0;
    const bool signal_before = signal;
    bool bad = false;
    bool tok = false;
    unsigned long long id = 0;  // sum of b_j * 2^j, as segment_id sums it
    int i = w.index(seg);
    for (int q = 0; q < len; ++q) {
      const auto a = v[i];
      bad |= a.leader() & (seg + q != 0);
      bad |= a.dist() != base_dist + q;
      bad |= a.last() != in_last;
      signal |= a.signal();
      bad |= a.live_bullet() & (signal | !w.shielded);
      id += static_cast<unsigned long long>(a.b()) << q;
      tok |= a.any_token();
      if (++i == n) i = 0;
    }
    if (bad)
      return first_agent_failure(w, seg, len, in_last, base_dist,
                                 signal_before);
    if (in_last) {
      for (int q = 0; tok && q < len; ++q)
        if (w.at(seg + q).any_token())
          return {Failure::kLastToken, w.index(seg + q)};
    } else {
      // Consecutive IDs for segments 1..zeta-2 (pairs [0, zeta-3]).
      if (s >= 1 && id != ((prev_id + 1) & id_mask))
        return {Failure::kSegmentIds, w.index(seg)};
      prev_id = id;
      tokens |= tok;
    }
  }
  if (!tokens) return {};

  int j_prev = psi;
  for (int seg = 0, s = 0; seg < last_from; seg += psi, ++s) {
    int j = psi;  // first-zero bit of this segment (psi if none)
    for (int q = 0; q < psi; ++q) {
      if (w.at(seg + q).b() == 0) {
        j = q;
        break;
      }
    }
    for (int q = 0; q < psi; ++q) {
      const auto a = w.at(seg + q);
      const Token tb = a.token_b();
      if (tb.exists() && !token_ok(w, seg + q, tb, 0, seg, s, j, j_prev))
        return {Failure::kBlackToken, w.index(seg + q)};
      const Token tw = a.token_w();
      if (tw.exists() && !token_ok(w, seg + q, tw, psi, seg, s, j, j_prev))
        return {Failure::kWhiteToken, w.index(seg + q)};
    }
    j_prev = j;
  }
  return {};
}

}  // namespace

SafetyVerdict check_safe(Config c, const PlParams& p) {
  const CoreVerdict v = safe_core(StateAgents{c}, p);
  const std::string at = " at " + std::to_string(v.agent);
  switch (v.failure) {
    case Failure::kNone:
      return {true, ""};
    case Failure::kLeaderCount:
      return {false,
              "leader count != 1 (" + std::to_string(count_leaders(c)) + ")"};
    case Failure::kLayout:
      return {false, "dist/last layout not C_DL" + at};
    case Failure::kBullet:
      return {false, "non-peaceful live bullet" + at};
    case Failure::kSegmentIds:
      return {false, "segment IDs not consecutive" + at};
    case Failure::kLastToken:
      return {false, "token hosted in the last segment" + at};
    case Failure::kBlackToken:
      return {false, "black token invalid/incorrect" + at};
    case Failure::kWhiteToken:
      return {false, "white token invalid/incorrect" + at};
  }
  return {false, "unknown failure"};
}

bool is_safe(Config c, const PlParams& p) {
  return safe_core(StateAgents{c}, p).failure == Failure::kNone;
}

bool is_safe_words(std::span<const std::uint64_t> words,
                   const PackedLayout& l, const PlParams& p) {
  return safe_core(WordAgents{words, l}, p).failure == Failure::kNone;
}

bool PlProtocol::is_safe_words(std::span<const std::uint64_t> words,
                               const WordLayout& l, const Params& p) {
  return pl::is_safe_words(words, l, p);
}

}  // namespace ppsim::pl
