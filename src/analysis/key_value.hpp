// Reader for the `key value` line format that `.serve` and `.dist` files
// share: one pair per line, `#` starts a comment, blank lines are skipped.
// Each pair goes to a per-format setter; the reader turns the setter's
// verdict into line-numbered diagnostics, so both formats report malformed
// lines, bad values and unknown keys the same way.
#pragma once

#include <functional>
#include <istream>
#include <string>

#include "analysis/diagnostic.hpp"

namespace gaplan::analysis {

/// How a setter took one `key value` pair.
enum class KeyStatus { kSet, kUnknownKey, kBadValue };

/// Sets `key` from its text `value`. On kBadValue the setter may put its own
/// message in `error`; left empty, the reader says "cannot parse ...".
using KeySetter = std::function<KeyStatus(
    const std::string& key, const std::string& value, std::string& error)>;

/// Reads every line of `in` into `set`. A line that is not exactly one key
/// and one value, or whose value the setter rejects, is a `<prefix>.bad-value`
/// error; a key the setter does not know is a `<prefix>.unknown-key` warning
/// ("unknown <config_name> key '...'"). Diagnostics carry `path` and the line
/// number, with the key as their subject.
void read_key_values(std::istream& in, const std::string& path,
                     const std::string& prefix, const std::string& config_name,
                     const KeySetter& set, Report& report);

}  // namespace gaplan::analysis
