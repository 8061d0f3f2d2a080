// Fixture: every banned lenient number parser.
// ppsim-lint-expect: atoi-family
#include <cstdlib>

namespace fake {
inline double bad_parse(char** argv) {
  const int n = std::atoi(argv[1]);       // banned
  const long a = atol(argv[2]);           // banned
  const long long t = std::atoll(argv[3]);  // banned
  return std::atof(argv[4]) + n + a + t;  // banned
}
}  // namespace fake
