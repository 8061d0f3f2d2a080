#include "core/json.hpp"

#include <cassert>
#include <cinttypes>
#include <cmath>

namespace ppsim::core {

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_in_scope_) std::fputc(',', out_);
  if (!compact_ && !stack_.empty()) {
    std::fputc('\n', out_);
    for (std::size_t i = 0; i < stack_.size(); ++i) std::fputs("  ", out_);
  }
  first_in_scope_ = false;
}

void JsonWriter::write_string(const char* s) {
  std::fputc('"', out_);
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        std::fputs("\\\"", out_);
        break;
      case '\\':
        std::fputs("\\\\", out_);
        break;
      case '\n':
        std::fputs("\\n", out_);
        break;
      case '\t':
        std::fputs("\\t", out_);
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::fprintf(out_, "\\u%04x", c);
        } else {
          std::fputc(c, out_);
        }
    }
  }
  std::fputc('"', out_);
}

void JsonWriter::begin_object() {
  separate();
  std::fputc('{', out_);
  stack_.push_back('{');
  first_in_scope_ = true;
}

void JsonWriter::end_object() {
  // invariant: writers are straight-line bench code; nesting is static.
  assert(!stack_.empty() && stack_.back() == '{' && !after_key_);
  const bool empty = first_in_scope_;
  stack_.pop_back();
  if (!compact_ && !empty) {
    std::fputc('\n', out_);
    for (std::size_t i = 0; i < stack_.size(); ++i) std::fputs("  ", out_);
  }
  std::fputc('}', out_);
  first_in_scope_ = false;
}

void JsonWriter::begin_array() {
  separate();
  std::fputc('[', out_);
  stack_.push_back('[');
  first_in_scope_ = true;
}

void JsonWriter::end_array() {
  // invariant: writers are straight-line bench code; nesting is static.
  assert(!stack_.empty() && stack_.back() == '[' && !after_key_);
  const bool empty = first_in_scope_;
  stack_.pop_back();
  if (!compact_ && !empty) {
    std::fputc('\n', out_);
    for (std::size_t i = 0; i < stack_.size(); ++i) std::fputs("  ", out_);
  }
  std::fputc(']', out_);
  first_in_scope_ = false;
}

void JsonWriter::key(const char* name) {
  // invariant: writers are straight-line bench code; nesting is static.
  assert(!stack_.empty() && stack_.back() == '{' && !after_key_);
  separate();
  write_string(name);
  std::fputs(compact_ ? ":" : ": ", out_);
  after_key_ = true;
}

void JsonWriter::value(const char* s) {
  separate();
  write_string(s);
}

void JsonWriter::value(bool b) {
  separate();
  std::fputs(b ? "true" : "false", out_);
}

void JsonWriter::value(double d) {
  separate();
  if (std::isfinite(d)) {
    std::fprintf(out_, "%.10g", d);
  } else {
    std::fputs("null", out_);  // inf/nan are not representable in JSON
  }
}

void JsonWriter::value(std::int64_t v) {
  separate();
  std::fprintf(out_, "%" PRId64, v);
}

void JsonWriter::value(std::uint64_t v) {
  separate();
  std::fprintf(out_, "%" PRIu64, v);
}

void JsonWriter::finish() {
  // invariant: writers are straight-line bench code; nesting is static.
  assert(stack_.empty() && !after_key_);
  std::fputc('\n', out_);
}

}  // namespace ppsim::core
