// Newline-delimited JSON wire helpers for gaplan_serve.
//
// The protocol is deliberately flat: every request and response is a single
// JSON object per line whose values are strings, numbers, booleans, null, or
// a flat array of numbers — never nested objects or arrays-of-arrays — so a
// tiny hand-rolled parser suffices and the service never allocates unbounded
// structure for a hostile line (every value is bounded by the frame cap).
// Number arrays exist for the distribution layer: a router relaying a
// worker's response (or a cache_put gossip frame) must parse the plan array
// the single-process protocol only ever wrote via JsonWriter::raw_field.
//
//   {"cmd":"submit","problem":"hanoi:4","gens":40,"priority":1}
//   {"ok":true,"id":3,"state":"queued"}
//
// Parsing never throws: parse_wire_message returns false with a
// position-annotated error the front end echoes back to the client.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gaplan::serve {

/// Hard cap on one NDJSON frame. parse_wire_message rejects longer lines and
/// the TCP front end drops clients whose unterminated line grows past it, so
/// a hostile peer cannot make the service buffer unbounded input.
inline constexpr std::size_t kMaxWireFrameBytes = 64 * 1024;

/// Largest integer a wire number carries exactly. Numbers are parsed as
/// doubles, and 2^53 + 1 already parses to 2^53, so the trusted range stops
/// one short of 2^53: larger 64-bit ids are rejected rather than rounded.
inline constexpr std::int64_t kMaxExactWireInteger =
    (std::int64_t{1} << 53) - 1;

/// Whether a wire number (e.g. a plan-array step) is an integral value an
/// int holds exactly — the check before converting it.
inline bool wire_int_in_range(double v) {
  return v == std::floor(v) &&
         v >= static_cast<double>(std::numeric_limits<int>::min()) &&
         v <= static_cast<double>(std::numeric_limits<int>::max());
}

/// The diagnostic get_integer reports: names the field, the accepted range
/// and the value received.
std::string wire_integer_error(const std::string& key, double value,
                               std::int64_t lo, std::int64_t hi);

/// One parsed wire line: flat key -> typed value maps. Key collisions keep
/// the last value, like most JSON parsers.
struct WireMessage {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
  std::map<std::string, bool> bools;
  std::map<std::string, std::vector<double>> arrays;

  const std::string* get_string(const std::string& key) const {
    const auto it = strings.find(key);
    return it == strings.end() ? nullptr : &it->second;
  }
  std::optional<double> get_number(const std::string& key) const {
    const auto it = numbers.find(key);
    if (it == numbers.end()) return std::nullopt;
    return it->second;
  }
  std::optional<bool> get_bool(const std::string& key) const {
    const auto it = bools.find(key);
    if (it == bools.end()) return std::nullopt;
    return it->second;
  }
  const std::vector<double>* get_array(const std::string& key) const {
    const auto it = arrays.find(key);
    return it == arrays.end() ? nullptr : &it->second;
  }

  /// Reads integer field `key` into `out`, which keeps its value when the
  /// key is absent. A present value must be integral and within [lo, hi]
  /// (by default T's range, clipped to ±kMaxExactWireInteger); otherwise
  /// returns false with an `error` naming the field, and `out` is untouched.
  template <std::integral T>
  bool get_integer(const std::string& key, T& out, std::string& error,
                   std::int64_t lo = min_exact<T>(),
                   std::int64_t hi = max_exact<T>()) const {
    const auto it = numbers.find(key);
    if (it == numbers.end()) return true;
    const double v = it->second;
    // NaN fails the first test; the bounds are exact doubles (|x| < 2^53).
    if (!(v == std::floor(v)) || v < static_cast<double>(lo) ||
        v > static_cast<double>(hi)) {
      error = wire_integer_error(key, v, lo, hi);
      return false;
    }
    out = static_cast<T>(v);
    return true;
  }

 private:
  template <typename T>
  static constexpr std::int64_t min_exact() {
    if constexpr (std::is_unsigned_v<T>) {
      return 0;
    } else {
      return std::max<std::int64_t>(std::numeric_limits<T>::min(),
                                    -kMaxExactWireInteger);
    }
  }
  template <typename T>
  static constexpr std::int64_t max_exact() {
    return static_cast<std::int64_t>(std::min<std::uint64_t>(
        std::numeric_limits<T>::max(), kMaxExactWireInteger));
  }
};

/// Parses one NDJSON line into `out` (cleared first). Returns false and sets
/// `error` on malformed input, including nested objects/arrays.
bool parse_wire_message(std::string_view line, WireMessage& out,
                        std::string& error);

/// Builds one flat JSON object; fields appear in call order. finish() closes
/// the object — the writer is single-use.
class JsonWriter {
 public:
  JsonWriter() : buf_("{") {}

  JsonWriter& field(std::string_view key, std::string_view value);
  /// Keeps string literals from decaying to the bool overload.
  JsonWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonWriter& field(std::string_view key, double value);
  JsonWriter& field(std::string_view key, std::int64_t value);
  JsonWriter& field(std::string_view key, std::uint64_t value);
  JsonWriter& field(std::string_view key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  JsonWriter& field(std::string_view key, bool value);
  /// Splices pre-rendered JSON (e.g. a "[1,2,3]" plan array) as the value.
  JsonWriter& raw_field(std::string_view key, std::string_view raw_json);

  std::string finish() {
    buf_ += '}';
    return std::move(buf_);
  }

 private:
  void key_(std::string_view key);

  std::string buf_;
  bool first_ = true;
};

/// Renders an int vector as a JSON array ("[1,2,3]") for raw_field — the
/// plan payload every status/probe/gossip response carries.
std::string render_int_array(const std::vector<int>& xs);

/// Re-renders a parsed message as one wire line, with `id_override`
/// substituted for any "id" field when >= 0. The router uses this to relay a
/// worker's response to the client under the router-side request id; fields
/// come out in map (alphabetical) order, and integral numbers render without
/// a fractional part.
std::string render_wire_message(const WireMessage& msg,
                                std::int64_t id_override = -1);

}  // namespace gaplan::serve
