// Fixture: bare asserts, one of them guarding caller input. Each needs an
// `invariant` reason; the tagged one and the static_assert stay quiet.
// ppsim-lint-expect: assert-only-check
#include <cassert>
#include <cstddef>
#include <vector>

namespace fake {

static_assert(sizeof(int) >= 2);

inline int at(const std::vector<int>& v, std::size_t i) {
  assert(i < v.size());  // caller input: must throw instead
  return v[i];
}

inline int half(int even) {
  assert(even % 2 == 0);
  return even / 2;
}

inline int twice(int x) {
  // invariant: callers pass a ring size, far below INT_MAX / 2.
  assert(x < (1 << 20));
  return 2 * x;
}

}  // namespace fake
