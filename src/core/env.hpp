// Strict integer parsing shared by every PPSIM_* knob and every argv count.
//
// The historical parsers were raw std::atoi: a typo like PPSIM_TRIALS=1O0
// (letter O) silently became 1, and PPSIM_THREADS=x became 0 — both then
// drove a real campaign with a silently-wrong plan. Here a malformed value
// is a hard error: the full string must parse as a base-10 integer
// (strtoll, no trailing garbage, no overflow), and anything else prints the
// offending variable or argument and exits with status 2 — a mis-typed
// knob can never masquerade as a small trial count.
//
// Negative-value semantics are deliberate and documented at each call site:
// the parsers *return* negatives verbatim (they parsed correctly — they are
// not garbage), and the caller decides what a negative means
// (PPSIM_THREADS <= 0 falls back to hardware concurrency; a negative
// PPSIM_TRIALS degrades to zero trials in the experiment drivers).
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace ppsim::core {

/// Strict integer parse of `text`: the parsed value when the whole string
/// is a base-10 integer; exit(2) with a diagnostic naming `what` (the
/// variable or argument) on anything else — empty, trailing garbage,
/// overflow.
[[nodiscard]] inline std::int64_t parse_int64(const char* what,
                                              const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "ppsim: %s='%s' is not an integer (strict parse; "
                 "refusing to run with a garbled value)\n",
                 what, text);
    std::exit(2);
  }
  return static_cast<std::int64_t>(parsed);
}

/// parse_int64 narrowed to int; values outside int's range are rejected
/// with the same hard error as garbage (a 64-bit count fed to an int knob is
/// a plan the caller cannot represent, not a value to truncate).
[[nodiscard]] inline int parse_int(const char* what, const char* text) {
  const std::int64_t v = parse_int64(what, text);
  if (v < INT32_MIN || v > INT32_MAX) {
    std::fprintf(stderr, "ppsim: %s=%lld does not fit a 32-bit knob\n", what,
                 static_cast<long long>(v));
    std::exit(2);
  }
  return static_cast<int>(v);
}

/// Strict integer environment override: `fallback` when `name` is unset or
/// empty, parse_int64 of its value otherwise.
[[nodiscard]] inline std::int64_t env_int64(const char* name,
                                            std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return parse_int64(name, v);
}

/// env_int64 narrowed to int (see parse_int).
[[nodiscard]] inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return parse_int(name, v);
}

}  // namespace ppsim::core
