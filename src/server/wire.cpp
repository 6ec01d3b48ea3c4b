#include "server/wire.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/trace.hpp"  // append_json_string

namespace gaplan::serve {

namespace {

struct Cursor {
  const char* p;
  const char* end;

  bool done() const { return p >= end; }
  char peek() const { return *p; }
  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n')) {
      ++p;
    }
  }
  std::size_t offset(const char* begin) const {
    return static_cast<std::size_t>(p - begin);
  }
};

bool fail(std::string& error, const Cursor& c, const char* begin,
          const std::string& what) {
  error = what + " at byte " + std::to_string(c.offset(begin));
  return false;
}

/// Parses a JSON string literal (cursor on the opening quote) into `out`.
bool parse_string(Cursor& c, const char* begin, std::string& out,
                  std::string& error) {
  ++c.p;  // opening quote
  out.clear();
  while (!c.done()) {
    const char ch = *c.p++;
    if (ch == '"') return true;
    if (static_cast<unsigned char>(ch) < 0x20) {
      // JSON requires control characters (including NUL) to be escaped; raw
      // ones are how truncated/binary frames smuggle garbage into fields.
      --c.p;  // report the offending byte's offset
      return fail(error, c, begin, "raw control character in string");
    }
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (c.done()) break;
    const char esc = *c.p++;
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (c.end - c.p < 4) return fail(error, c, begin, "truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = *c.p++;
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return fail(error, c, begin, "bad \\u escape");
        }
        // Encode as UTF-8 (surrogate pairs unsupported: protocol strings are
        // problem specs and client tags, plain ASCII in practice).
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          out += static_cast<char>(0xE0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default:
        return fail(error, c, begin, "unknown escape");
    }
  }
  return fail(error, c, begin, "unterminated string");
}

/// Parses a JSON number token (cursor on '-' or a digit) into `value`.
bool parse_number(Cursor& c, const char* begin, double& value,
                  std::string& error) {
  // strtod needs NUL termination and would scan past the end of a
  // non-terminated frame: bound the token first, parse a local copy.
  const char* tok_end = c.p;
  while (tok_end < c.end &&
         (*tok_end == '-' || *tok_end == '+' || *tok_end == '.' ||
          *tok_end == 'e' || *tok_end == 'E' ||
          (*tok_end >= '0' && *tok_end <= '9'))) {
    ++tok_end;
  }
  char num_buf[64];
  const std::size_t tok_len = static_cast<std::size_t>(tok_end - c.p);
  if (tok_len == 0 || tok_len >= sizeof(num_buf)) {
    return fail(error, c, begin, "bad number");
  }
  std::memcpy(num_buf, c.p, tok_len);
  num_buf[tok_len] = '\0';
  char* num_end = nullptr;
  value = std::strtod(num_buf, &num_end);
  if (num_end != num_buf + tok_len) {
    return fail(error, c, begin, "bad number");
  }
  c.p = tok_end;
  return true;
}

/// Parses a flat array of numbers (cursor on '['). Anything but numbers and
/// commas inside is rejected — nesting stays impossible, so a hostile line
/// can never make the parser recurse or build unbounded structure.
bool parse_number_array(Cursor& c, const char* begin, std::vector<double>& out,
                        std::string& error) {
  ++c.p;  // '['
  out.clear();
  c.skip_ws();
  if (!c.done() && c.peek() == ']') {
    ++c.p;
    return true;
  }
  for (;;) {
    c.skip_ws();
    if (c.done()) return fail(error, c, begin, "unterminated array");
    const char v = c.peek();
    if (v != '-' && (v < '0' || v > '9')) {
      return fail(error, c, begin, "arrays may hold numbers only");
    }
    double value = 0.0;
    if (!parse_number(c, begin, value, error)) return false;
    out.push_back(value);
    c.skip_ws();
    if (c.done()) return fail(error, c, begin, "unterminated array");
    if (c.peek() == ',') {
      ++c.p;
      continue;
    }
    if (c.peek() == ']') {
      ++c.p;
      return true;
    }
    return fail(error, c, begin, "expected ',' or ']'");
  }
}

}  // namespace

bool parse_wire_message(std::string_view line, WireMessage& out,
                        std::string& error) {
  out = WireMessage{};
  if (line.size() > kMaxWireFrameBytes) {
    error = "frame exceeds " + std::to_string(kMaxWireFrameBytes) + " bytes";
    return false;
  }
  Cursor c{line.data(), line.data() + line.size()};
  const char* begin = line.data();

  c.skip_ws();
  if (c.done() || c.peek() != '{') {
    return fail(error, c, begin, "expected '{'");
  }
  ++c.p;
  c.skip_ws();
  if (!c.done() && c.peek() == '}') {
    ++c.p;
  } else {
    for (;;) {
      c.skip_ws();
      if (c.done() || c.peek() != '"') {
        return fail(error, c, begin, "expected key string");
      }
      std::string key;
      if (!parse_string(c, begin, key, error)) return false;
      c.skip_ws();
      if (c.done() || c.peek() != ':') {
        return fail(error, c, begin, "expected ':'");
      }
      ++c.p;
      c.skip_ws();
      if (c.done()) return fail(error, c, begin, "missing value");

      // Last value wins across types too: a key re-bound to a new type (or
      // to null) must not leave a stale entry behind in another map.
      out.strings.erase(key);
      out.numbers.erase(key);
      out.bools.erase(key);
      out.arrays.erase(key);

      const char v = c.peek();
      if (v == '"') {
        std::string value;
        if (!parse_string(c, begin, value, error)) return false;
        out.strings[key] = std::move(value);
      } else if (v == 't') {
        if (std::string_view(c.p, c.end - c.p).substr(0, 4) != "true") {
          return fail(error, c, begin, "bad literal");
        }
        c.p += 4;
        out.bools[key] = true;
      } else if (v == 'f') {
        if (std::string_view(c.p, c.end - c.p).substr(0, 5) != "false") {
          return fail(error, c, begin, "bad literal");
        }
        c.p += 5;
        out.bools[key] = false;
      } else if (v == 'n') {
        if (std::string_view(c.p, c.end - c.p).substr(0, 4) != "null") {
          return fail(error, c, begin, "bad literal");
        }
        c.p += 4;  // null: key is simply absent
      } else if (v == '{') {
        return fail(error, c, begin, "nested objects unsupported");
      } else if (v == '[') {
        std::vector<double> values;
        if (!parse_number_array(c, begin, values, error)) return false;
        out.arrays[key] = std::move(values);
      } else if (v == '-' || (v >= '0' && v <= '9')) {
        double value = 0.0;
        if (!parse_number(c, begin, value, error)) return false;
        out.numbers[key] = value;
      } else {
        return fail(error, c, begin, "unexpected value");
      }

      c.skip_ws();
      if (c.done()) return fail(error, c, begin, "unterminated object");
      if (c.peek() == ',') {
        ++c.p;
        continue;
      }
      if (c.peek() == '}') {
        ++c.p;
        break;
      }
      return fail(error, c, begin, "expected ',' or '}'");
    }
  }
  c.skip_ws();
  if (!c.done()) return fail(error, c, begin, "trailing garbage");
  return true;
}

void JsonWriter::key_(std::string_view key) {
  if (!first_) buf_ += ',';
  first_ = false;
  obs::append_json_string(buf_, key);
  buf_ += ':';
}

JsonWriter& JsonWriter::field(std::string_view key, std::string_view value) {
  key_(key);
  obs::append_json_string(buf_, value);
  return *this;
}

std::string wire_integer_error(const std::string& key, double value,
                               std::int64_t lo, std::int64_t hi) {
  char tmp[32];
  const auto res = std::to_chars(tmp, tmp + sizeof(tmp), value);
  return "'" + key + "' must be an integer in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "], got " + std::string(tmp, res.ptr);
}

JsonWriter& JsonWriter::field(std::string_view key, double value) {
  key_(key);
  if (!std::isfinite(value)) {
    buf_ += "null";  // inf/nan are not JSON numbers
    return *this;
  }
  // Shortest representation that parses back to the same double: %.10g used
  // to truncate plan costs/fitness values, so a wire roundtrip lost bits.
  char tmp[32];
  const auto res = std::to_chars(tmp, tmp + sizeof(tmp), value);
  buf_.append(tmp, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::int64_t value) {
  key_(key);
  buf_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::uint64_t value) {
  key_(key);
  buf_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, bool value) {
  key_(key);
  buf_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw_field(std::string_view key,
                                  std::string_view raw_json) {
  key_(key);
  buf_ += raw_json;
  return *this;
}

std::string render_int_array(const std::vector<int>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(xs[i]);
  }
  out += ']';
  return out;
}

std::string render_wire_message(const WireMessage& msg,
                                std::int64_t id_override) {
  JsonWriter w;
  const auto number_field = [&w](const std::string& key, double v) {
    // Ids/counts travel as doubles inside WireMessage; render the integral
    // ones back without a fractional part so clients see the same tokens the
    // worker wrote.
    if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
        v >= -9.0e15 && v <= 9.0e15) {
      w.field(key, static_cast<std::int64_t>(v));
    } else {
      w.field(key, v);
    }
  };
  for (const auto& [key, value] : msg.strings) w.field(key, std::string_view(value));
  for (const auto& [key, value] : msg.numbers) {
    if (key == "id" && id_override >= 0) {
      w.field(key, id_override);
    } else {
      number_field(key, value);
    }
  }
  for (const auto& [key, value] : msg.bools) w.field(key, value);
  for (const auto& [key, values] : msg.arrays) {
    std::string raw = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) raw += ',';
      const double v = values[i];
      if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
          v >= -9.0e15 && v <= 9.0e15) {
        raw += std::to_string(static_cast<std::int64_t>(v));
      } else if (!std::isfinite(v)) {
        raw += "null";  // inf/nan are not JSON numbers
      } else {
        char tmp[32];
        const auto res = std::to_chars(tmp, tmp + sizeof(tmp), v);
        raw.append(tmp, res.ptr);
      }
    }
    raw += ']';
    w.raw_field(key, raw);
  }
  if (id_override >= 0 && msg.numbers.find("id") == msg.numbers.end()) {
    w.field("id", id_override);
  }
  return w.finish();
}

}  // namespace gaplan::serve
